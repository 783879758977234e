package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
)

// TestUntracedFrameBytesUnchanged pins the one frame layout byte for
// byte: an untraced frame is the header, a zero 40-byte envelope, then
// the payload — exactly 40 bytes more than a bare header+payload.
func TestUntracedFrameBytesUnchanged(t *testing.T) {
	payload := []byte("block-bytes")
	var got bytes.Buffer
	if err := WriteFrame(&got, Frame{Kind: p2p.MsgBlock, Payload: payload}); err != nil {
		t.Fatal(err)
	}

	// Constructed by hand from the documented layout rather than through
	// the codec under test.
	want := []byte{'S', 'C', 'W', '1', 2, byte(p2p.MsgBlock), 0, 0, 0, byte(40 + len(payload))}
	want = append(want, make([]byte, 40)...)
	want = append(want, payload...)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatalf("untraced frame bytes drifted:\n got %x\nwant %x", got.Bytes(), want)
	}
	if bare := 10 + len(payload); got.Len() != bare+40 {
		t.Fatalf("frame is %d bytes, want bare header+payload %d plus the 40-byte envelope", got.Len(), bare)
	}
}

func TestTracedFrameRoundTrip(t *testing.T) {
	tc := telemetry.TraceContext{
		TraceID: telemetry.NewTraceID(),
		Span:    telemetry.NewSpanID(),
		Start:   1_700_000_000_000_000_001,
	}
	in := Frame{Kind: p2p.MsgBlock, Payload: []byte("b"), Trace: tc, SentNanos: 1_700_000_000_000_000_999}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	if v := buf.Bytes()[4]; v != ProtocolVersion {
		t.Fatalf("traced frame carries version %d, want %d", v, ProtocolVersion)
	}
	if length := binary.BigEndian.Uint32(buf.Bytes()[6:]); length != uint32(envelopeSize+len(in.Payload)) {
		t.Fatalf("declared length %d, want envelope %d + payload %d", length, envelopeSize, len(in.Payload))
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.Kind != in.Kind || !bytes.Equal(out.Payload, in.Payload) {
		t.Fatalf("payload changed: %+v", out)
	}
	if out.Trace != tc || out.SentNanos != in.SentNanos {
		t.Fatalf("envelope changed: got %+v / %d, want %+v / %d", out.Trace, out.SentNanos, tc, in.SentNanos)
	}
}

func TestTracedFrameEmptyPayload(t *testing.T) {
	tc := telemetry.TraceContext{TraceID: telemetry.NewTraceID(), Span: telemetry.NewSpanID(), Start: 1}
	var buf bytes.Buffer
	if err := WriteFrame(&buf, Frame{Kind: p2p.MsgBlockRequest, Trace: tc}); err != nil {
		t.Fatal(err)
	}
	out, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out.Payload) != 0 || out.Trace != tc {
		t.Fatalf("empty-payload traced frame decoded to %+v", out)
	}
}

func TestTracedFrameTruncatedEnvelopeRejected(t *testing.T) {
	raw := []byte{'S', 'C', 'W', '1', ProtocolVersion, byte(p2p.MsgBlock), 0, 0, 0, 8}
	raw = append(raw, make([]byte, 8)...) // a fifth of an envelope
	if _, err := ReadFrame(bytes.NewReader(raw)); !errors.Is(err, ErrTruncated) {
		t.Fatalf("frame shorter than its envelope: err = %v, want ErrTruncated", err)
	}
}
