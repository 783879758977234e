package p2p

// Relay-by-announcement payloads. The node that introduces a transaction
// or a block pushes its body (MsgTx, MsgBlock); every node that accepted
// one off gossip tells its other peers only the id, and a peer that lacks
// the item asks for it: MsgBlockRequest for a block, MsgTxRequest for
// transactions. A body therefore crosses a link once, whatever the
// topology (PROTOCOL.md §5).
//
// Both payloads are bare runs of 32-byte ids with no count field, so there
// is no declared length to distrust: the decoders check the payload's own
// length and hand back a view over it, allocating nothing.

import (
	"fmt"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// Announcement kinds, extending the sync kinds (4–10).
const (
	// MsgAnnounce names items the sender holds and the receiver may fetch:
	// one item-kind byte (MsgTx or MsgBlock) followed by 1 to
	// MaxAnnounceIDs ids.
	MsgAnnounce MsgKind = iota + 11
	// MsgTxRequest asks the peer for pooled transactions by id (1 to
	// MaxAnnounceIDs ids); each one it still holds comes back as an
	// ordinary MsgTx.
	MsgTxRequest
)

// MaxAnnounceIDs bounds the ids in one MsgAnnounce or MsgTxRequest — a
// 32 KiB frame. A relaying node splits a larger batch across frames; a
// longer payload is malformed.
const MaxAnnounceIDs = 1024

// IDList is a view over a run of 32-byte ids inside a received payload.
type IDList []byte

// Len returns the number of ids.
func (l IDList) Len() int { return len(l) / types.HashSize }

// At returns the i-th id.
func (l IDList) At(i int) types.Hash {
	var id types.Hash
	copy(id[:], l[i*types.HashSize:])
	return id
}

// appendIDs appends the ids' bytes to dst.
func appendIDs(dst []byte, ids []types.Hash) []byte {
	for i := range ids {
		dst = append(dst, ids[i][:]...)
	}
	return dst
}

// checkIDs reports why raw is not a whole number of ids within the cap.
func checkIDs(raw []byte) error {
	if len(raw) == 0 || len(raw)%types.HashSize != 0 {
		return fmt.Errorf("%d id bytes is not a positive multiple of %d", len(raw), types.HashSize)
	}
	if n := len(raw) / types.HashSize; n > MaxAnnounceIDs {
		return fmt.Errorf("%d ids (max %d)", n, MaxAnnounceIDs)
	}
	return nil
}

// EncodeAnnounce builds a MsgAnnounce payload for items of the given kind.
func EncodeAnnounce(item MsgKind, ids []types.Hash) []byte {
	out := make([]byte, 0, 1+len(ids)*types.HashSize)
	return appendIDs(append(out, byte(item)), ids)
}

// ParseAnnounce validates a MsgAnnounce payload and returns the item kind
// and a view of the ids.
func ParseAnnounce(payload []byte) (MsgKind, IDList, error) {
	malformed := func(format string, args ...any) (MsgKind, IDList, error) {
		mMalformedGossipAnnounce.Inc()
		return 0, nil, fmt.Errorf("p2p: malformed announce: "+format, args...)
	}
	if len(payload) == 0 {
		return malformed("empty payload")
	}
	item := MsgKind(payload[0])
	if item != MsgTx && item != MsgBlock {
		return malformed("item kind %d", payload[0])
	}
	if err := checkIDs(payload[1:]); err != nil {
		return malformed("%w", err)
	}
	return item, IDList(payload[1:]), nil
}

// EncodeTxRequest builds a MsgTxRequest payload.
func EncodeTxRequest(ids []types.Hash) []byte {
	return appendIDs(make([]byte, 0, len(ids)*types.HashSize), ids)
}

// ParseTxRequest validates a MsgTxRequest payload and returns a view of
// the ids asked for.
func ParseTxRequest(payload []byte) (IDList, error) {
	if err := checkIDs(payload); err != nil {
		mMalformedTxReq.Inc()
		return nil, fmt.Errorf("p2p: malformed tx request: %w", err)
	}
	return IDList(payload), nil
}
