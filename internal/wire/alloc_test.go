//go:build !race

// Allocation pins: the race detector's instrumentation allocates on its
// own, so these run without it only.

package wire

import (
	"io"
	"net"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
)

// TestFrameWriterAllocatesNothing: a peer's writer encodes every frame
// into the header and vector it owns, so a frame costs no allocation —
// on a TCP connection, where the vector goes out as one writev, and on
// any other writer.
func TestFrameWriterAllocatesNothing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	drained := make(chan error, 1)
	go func() {
		conn, err := ln.Accept()
		if err == nil {
			_, err = io.Copy(io.Discard, conn)
			conn.Close()
		}
		drained <- err
	}()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	f := Frame{Kind: p2p.MsgTx, Payload: make([]byte, 200), Trace: telemetry.TraceContext{TraceID: telemetry.TraceID{1}}, SentNanos: 1}
	var fw frameWriter
	for name, w := range map[string]io.Writer{"tcp": conn, "discard": io.Discard} {
		if err := fw.write(w, f); err != nil { // the connection's first writev sizes its iovec cache
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := fw.write(w, f); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%s: a frame allocates %v times, want 0", name, allocs)
		}
	}
	conn.Close()
	if err := <-drained; err != nil {
		t.Fatal(err)
	}
}
