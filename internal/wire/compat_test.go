package wire

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"testing"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
)

// TestVersion1HelloRefused dials a modern node as a build that predates
// the envelope would: a version-1 hello built by hand from the old
// layout, sharing no codec with the package under test. There is no
// negotiation — the handshake must fail, be counted under reason
// "version", register no peer and close the connection.
func TestVersion1HelloRefused(t *testing.T) {
	genesis := testGenesis()
	tr := newTestTransport(t, "modern", genesis)
	refused0 := handshakeFailure("version").Value()

	conn, err := net.Dial("tcp", tr.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	payload := encodeHello(hello{Genesis: genesis, NodeID: "legacy"})
	frame := []byte{'S', 'C', 'W', '1', 1, byte(kindHello)}
	frame = binary.BigEndian.AppendUint32(frame, uint32(len(payload)))
	if _, err := conn.Write(append(frame, payload...)); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 5*time.Second, func() bool { return handshakeFailure("version").Value() == refused0+1 },
		"version-1 hello counted as a version handshake failure")
	if hasPeer(tr, "legacy") {
		t.Fatal("version-1 peer was registered")
	}
	// The modern side sent its own hello first and then hung up (EOF, or
	// a reset because our hello's payload was never read).
	if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	var nerr net.Error
	if _, err := io.Copy(io.Discard, conn); errors.As(err, &nerr) && nerr.Timeout() {
		t.Fatal("connection still open after the refusal")
	}
}

// TestTraceCapablePeersExchangeEnvelopes is the two-transport envelope
// round trip: a traced broadcast arrives with its context intact and an
// untraced one arrives untraced, with no capability exchange in between.
func TestTraceCapablePeersExchangeEnvelopes(t *testing.T) {
	genesis := testGenesis()
	a := newTestTransport(t, "a", genesis)
	b := newTestTransport(t, "b", genesis, a.Addr())
	waitFor(t, 5*time.Second, func() bool { return hasPeer(a, "b") && hasPeer(b, "a") }, "mesh")

	tc := telemetry.TraceContext{TraceID: telemetry.NewTraceID(), Span: telemetry.NewSpanID(), Start: time.Now().UnixNano()}
	hops0 := mPropHop.Count()
	a.Broadcast("a", p2p.Message{Kind: p2p.MsgBlock, Payload: []byte("blk"), Trace: tc})
	a.Broadcast("a", p2p.Message{Kind: p2p.MsgTx, Payload: []byte("tx")})
	msgs := receiveN(t, b, 2, 5*time.Second)
	if msgs[0].Trace != tc {
		t.Fatalf("traced broadcast arrived with context %+v, want %+v", msgs[0].Trace, tc)
	}
	if msgs[1].Trace.Valid() {
		t.Fatalf("untraced broadcast grew a trace context: %+v", msgs[1].Trace)
	}
	if mPropHop.Count() != hops0+1 {
		t.Fatalf("propagation histogram took %d samples, want exactly the traced frame", mPropHop.Count()-hops0)
	}
}
