package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// hello is the handshake each side sends as its first frame. The frame
// header already proves magic and protocol version — a peer speaking any
// other version fails the read and is refused here, which is the whole
// of version negotiation. The hello pins the chain identity (genesis)
// and advertises who the peer is and how far its canonical chain
// reaches, so a freshly (re)connected node can start snap-sync or
// ancestor backfill immediately instead of waiting for the next gossip.
type hello struct {
	Genesis    types.Hash
	NodeID     p2p.NodeID
	HeadID     types.Hash
	HeadNumber uint64
}

// maxNodeIDLen bounds the id string a remote hello may carry.
const maxNodeIDLen = 128

// Handshake errors (the reason labels of the handshake-failure metric).
var (
	ErrGenesisMismatch = errors.New("wire: genesis mismatch")
	ErrBadHello        = errors.New("wire: malformed hello")
	ErrSelfConnect     = errors.New("wire: connected to self")
)

func encodeHello(h hello) []byte {
	out := make([]byte, 0, types.HashSize*2+8+2+len(h.NodeID))
	out = append(out, h.Genesis[:]...)
	out = append(out, h.HeadID[:]...)
	out = binary.BigEndian.AppendUint64(out, h.HeadNumber)
	out = binary.BigEndian.AppendUint16(out, uint16(len(h.NodeID)))
	out = append(out, h.NodeID...)
	return out
}

func decodeHello(payload []byte) (hello, error) {
	const fixed = types.HashSize*2 + 8 + 2
	if len(payload) < fixed {
		return hello{}, fmt.Errorf("%w: %d bytes", ErrBadHello, len(payload))
	}
	var h hello
	copy(h.Genesis[:], payload[:types.HashSize])
	copy(h.HeadID[:], payload[types.HashSize:2*types.HashSize])
	h.HeadNumber = binary.BigEndian.Uint64(payload[2*types.HashSize:])
	idLen := int(binary.BigEndian.Uint16(payload[2*types.HashSize+8:]))
	if idLen == 0 || idLen > maxNodeIDLen || len(payload) != fixed+idLen {
		return hello{}, fmt.Errorf("%w: id length %d", ErrBadHello, idLen)
	}
	h.NodeID = p2p.NodeID(payload[fixed:])
	return h, nil
}

// handshake runs the symmetric hello exchange on a fresh connection: send
// ours, read theirs, verify chain identity. The deadline bounds the whole
// exchange so a silent peer cannot park a goroutine.
func (t *Transport) handshake(conn net.Conn) (hello, error) {
	deadline := time.Now().Add(t.cfg.HandshakeTimeout)
	if err := conn.SetDeadline(deadline); err != nil {
		return hello{}, err
	}
	defer conn.SetDeadline(time.Time{})

	ours := hello{Genesis: t.cfg.Genesis, NodeID: t.cfg.NodeID}
	if t.cfg.Head != nil {
		ours.HeadID, ours.HeadNumber = t.cfg.Head()
	}
	if err := WriteFrame(conn, Frame{Kind: kindHello, Payload: encodeHello(ours)}); err != nil {
		return hello{}, fmt.Errorf("wire: send hello: %w", err)
	}
	f, err := ReadFrame(conn)
	if err != nil {
		return hello{}, fmt.Errorf("wire: read hello: %w", err)
	}
	if f.Kind != kindHello {
		return hello{}, fmt.Errorf("%w: first frame kind %s", ErrBadHello, f.Kind)
	}
	theirs, err := decodeHello(f.Payload)
	if err != nil {
		return hello{}, err
	}
	if theirs.Genesis != t.cfg.Genesis {
		return hello{}, fmt.Errorf("%w: remote %s, local %s",
			ErrGenesisMismatch, theirs.Genesis.Short(), t.cfg.Genesis.Short())
	}
	if theirs.NodeID == t.cfg.NodeID {
		return hello{}, ErrSelfConnect
	}
	return theirs, nil
}

// handshakeFailReason classifies a handshake error for the metric label.
func handshakeFailReason(err error) string {
	switch {
	case errors.Is(err, ErrGenesisMismatch):
		return "genesis"
	case errors.Is(err, ErrBadVersion):
		return "version"
	case errors.Is(err, ErrBadMagic):
		return "magic"
	case errors.Is(err, ErrBadHello):
		return "hello"
	case errors.Is(err, ErrSelfConnect):
		return "self"
	default:
		return "io"
	}
}
