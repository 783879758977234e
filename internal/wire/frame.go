// Package wire is SmartCrowd's real network transport: a stdlib-only TCP
// implementation of the p2p.Transport interface the nodes gossip over.
// Where internal/p2p simulates dissemination on a deterministic in-process
// bus, this package moves the same p2p.Message payloads between OS
// processes over length-prefixed frames, with a version/genesis handshake,
// a reconnecting peer manager (exponential backoff with jitter, per-peer
// write deadlines and read timeouts, bounded outbound queues with
// drop-oldest shedding), and full telemetry coverage.
//
// Frame layout (all integers big-endian) — there is one, and no
// negotiation: a peer that sends any other version byte is refused.
//
//	magic    [4]byte  "SCW1" — rejects non-SmartCrowd peers immediately
//	version  uint8    ProtocolVersion; mismatches are rejected per frame
//	kind     uint8    p2p.MsgKind or a wire control kind (0x80+)
//	length   uint32   envelope + payload byte count, bounded by
//	                  envelopeSize + MaxFramePayload
//	envelope [40]byte trace id [16] + parent span id [8] + origin
//	                  unix-nanos [8] + sent unix-nanos [8]; a zero trace
//	                  id means the frame is untraced
//	payload  [length-40]byte
//
// The codec never trusts the remote end: bad magic, unknown versions,
// oversized lengths and truncated payloads all fail with typed errors and
// without allocating the declared length first.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"

	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
)

// Wire protocol constants.
const (
	// ProtocolVersion is the one frame layout this build speaks.
	ProtocolVersion = 2

	// MaxFramePayload bounds a frame's payload. Blocks are the largest
	// protocol objects; 8 MiB leaves generous headroom while keeping a
	// hostile peer from forcing huge allocations.
	MaxFramePayload = 8 << 20

	// headerSize is magic + version + kind + length.
	headerSize = 4 + 1 + 1 + 4

	// envelopeSize is the fixed prefix of every frame body: trace id
	// [16] + parent span id [8] + origin unix-nanos [8] + sent
	// unix-nanos [8].
	envelopeSize = 16 + 8 + 8 + 8
)

// magic identifies SmartCrowd wire streams.
var magic = [4]byte{'S', 'C', 'W', '1'}

// Control frame kinds, outside the p2p.MsgKind range.
const (
	// kindHello opens every connection (handshake.go).
	kindHello p2p.MsgKind = 0x80 + iota
	// kindPing keeps idle connections alive under read timeouts.
	kindPing
)

// Frame is one wire unit: a message kind plus its payload. Trace rides
// in the envelope ahead of the payload (zero = untraced); SentNanos is
// stamped by the writer so the receiver can compute one-hop latency.
type Frame struct {
	Kind      p2p.MsgKind
	Payload   []byte
	Trace     telemetry.TraceContext
	SentNanos int64
}

// encodedSize is the number of bytes the frame occupies on the wire.
func (f Frame) encodedSize() int { return headerSize + envelopeSize + len(f.Payload) }

// Codec errors.
var (
	ErrBadMagic      = errors.New("wire: bad frame magic")
	ErrBadVersion    = errors.New("wire: protocol version mismatch")
	ErrFrameTooLarge = errors.New("wire: frame payload exceeds bound")
	ErrTruncated     = errors.New("wire: truncated frame")
)

// WriteFrame encodes f to w. Payloads above MaxFramePayload are refused
// locally — the remote end would drop the connection anyway. The header
// and envelope are built in a fixed array and sent together with the
// payload as one net.Buffers write — a single writev on a TCP connection —
// so the payload, which a broadcast shares among every peer's queue, is
// never copied.
func WriteFrame(w io.Writer, f Frame) error {
	if len(f.Payload) > MaxFramePayload {
		return fmt.Errorf("%w: %d bytes", ErrFrameTooLarge, len(f.Payload))
	}
	var head [headerSize + envelopeSize]byte
	copy(head[:4], magic[:])
	head[4] = ProtocolVersion
	head[5] = byte(f.Kind)
	binary.BigEndian.PutUint32(head[6:], uint32(envelopeSize+len(f.Payload)))
	env := head[headerSize:]
	copy(env, f.Trace.TraceID[:])
	copy(env[16:], f.Trace.Span[:])
	binary.BigEndian.PutUint64(env[24:], uint64(f.Trace.Start))
	binary.BigEndian.PutUint64(env[32:], uint64(f.SentNanos))
	bufs := net.Buffers{head[:], f.Payload}
	_, err := bufs.WriteTo(w)
	return err
}

// ReadFrame decodes one frame from r. It validates magic, version and the
// declared length before reading the body, so a hostile peer cannot
// force a large allocation or park the reader on garbage.
func ReadFrame(r io.Reader) (Frame, error) {
	var hdr [headerSize]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return Frame{}, fmt.Errorf("%w: short header", ErrTruncated)
		}
		return Frame{}, err
	}
	if [4]byte(hdr[:4]) != magic {
		return Frame{}, ErrBadMagic
	}
	if hdr[4] != ProtocolVersion {
		return Frame{}, fmt.Errorf("%w: remote %d, local %d", ErrBadVersion, hdr[4], ProtocolVersion)
	}
	length := binary.BigEndian.Uint32(hdr[6:])
	if length > envelopeSize+MaxFramePayload {
		return Frame{}, fmt.Errorf("%w: declared %d bytes", ErrFrameTooLarge, length)
	}
	if length < envelopeSize {
		return Frame{}, fmt.Errorf("%w: frame shorter than its envelope", ErrTruncated)
	}
	body := make([]byte, length)
	if _, err := io.ReadFull(r, body); err != nil {
		return Frame{}, fmt.Errorf("%w: body short of declared %d bytes", ErrTruncated, length)
	}
	f := Frame{Kind: p2p.MsgKind(hdr[5])}
	copy(f.Trace.TraceID[:], body[:16])
	copy(f.Trace.Span[:], body[16:24])
	f.Trace.Start = int64(binary.BigEndian.Uint64(body[24:32]))
	f.SentNanos = int64(binary.BigEndian.Uint64(body[32:40]))
	if len(body) > envelopeSize {
		f.Payload = body[envelopeSize:]
	}
	return f, nil
}
