package wire

import (
	"bytes"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// Native fuzz targets for the two attacker-facing decoders, mirroring
// rlp's FuzzDecode: arbitrary bytes must never panic, and nothing may
// allocate past the 8 MiB frame bound. Seed corpora live under
// testdata/fuzz/; CI runs each target for a 10s smoke
// (`go test -fuzz=<target> -fuzztime=10s ./internal/wire`).

// FuzzReadFrame feeds arbitrary byte streams to the frame decoder. On
// success the decoded frame must respect the payload bound and survive a
// write/read round trip unchanged.
func FuzzReadFrame(f *testing.F) {
	var valid bytes.Buffer
	if err := WriteFrame(&valid, Frame{Kind: p2p.MsgBlock, Payload: []byte("abc")}); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	var traced bytes.Buffer
	tc := telemetry.TraceContext{TraceID: telemetry.NewTraceID(), Span: telemetry.NewSpanID(), Start: 12345}
	if err := WriteFrame(&traced, Frame{Kind: p2p.MsgBlock, Payload: []byte("abc"), Trace: tc, SentNanos: 67890}); err != nil {
		f.Fatal(err)
	}
	f.Add(traced.Bytes())
	env := string(make([]byte, envelopeSize))
	f.Add([]byte("XXXX\x02\x01\x00\x00\x00\x28" + env))             // bad magic
	f.Add([]byte("SCW1\x03\x01\x00\x00\x00\x28" + env))             // bad version (above the one we speak)
	f.Add([]byte("SCW1\x01\x01\x00\x00\x00\x03abc"))                // the retired version-1 layout: must be rejected
	f.Add([]byte("SCW1\x02\x01\xff\xff\xff\xff"))                   // declared length over bound
	f.Add([]byte("SCW1\x02\x01\x00\x00\x00\x31" + env + "short"))   // truncated payload
	f.Add([]byte("SCW1\x02\x81\x00\x00\x00\x28" + env))             // control frame, empty payload
	f.Add([]byte("SCW1\x02\x01\x00\x7f\xff\xff" + env + "padding")) // large-but-legal declaration, truncated
	f.Add([]byte("SCW1\x02\x02\x00\x00\x00\x10short-envelope"))     // frame shorter than its envelope

	f.Fuzz(func(t *testing.T, data []byte) {
		fr, err := ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		if data[4] != ProtocolVersion {
			t.Fatalf("accepted a frame with version byte %d", data[4])
		}
		// The decoder promised it never allocates past the bound.
		if len(fr.Payload) > MaxFramePayload {
			t.Fatalf("decoded payload %d bytes exceeds MaxFramePayload %d", len(fr.Payload), MaxFramePayload)
		}
		var buf bytes.Buffer
		if err := WriteFrame(&buf, fr); err != nil {
			t.Fatalf("re-encode of accepted frame failed: %v", err)
		}
		again, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("re-decode of accepted frame failed: %v", err)
		}
		if again.Kind != fr.Kind || !bytes.Equal(again.Payload, fr.Payload) {
			t.Fatalf("round trip changed frame: %+v -> %+v", fr, again)
		}
		// The envelope is always on the wire, so it survives exactly —
		// traced or not.
		if again.Trace != fr.Trace || again.SentNanos != fr.SentNanos {
			t.Fatalf("round trip changed the envelope: %+v -> %+v", fr, again)
		}
	})
}

// FuzzParseHandshake feeds arbitrary payloads to the hello decoder. An
// accepted hello must re-encode to exactly the input (the codec is
// canonical) and respect the node-id bound.
func FuzzParseHandshake(f *testing.F) {
	var genesis, head types.Hash
	for i := range head {
		head[i] = 0xaa
	}
	f.Add(encodeHello(hello{Genesis: genesis, NodeID: "node-1", HeadID: head, HeadNumber: 7}))
	f.Add(encodeHello(hello{Genesis: head, NodeID: "x", HeadID: genesis, HeadNumber: 0}))
	f.Add([]byte(""))                        // empty
	f.Add(bytes.Repeat([]byte{0}, 73))       // one byte short of the fixed header
	f.Add(bytes.Repeat([]byte{0xff, 1}, 40)) // garbage with a huge declared id length

	f.Fuzz(func(t *testing.T, data []byte) {
		h, err := decodeHello(data)
		if err != nil {
			return
		}
		if n := len(h.NodeID); n == 0 || n > maxNodeIDLen {
			t.Fatalf("accepted hello with node id length %d (bound %d)", n, maxNodeIDLen)
		}
		if got := encodeHello(h); !bytes.Equal(got, data) {
			t.Fatalf("accepted hello is not canonical:\n in: %x\nout: %x", data, got)
		}
	})
}
