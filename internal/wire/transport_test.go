package wire

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"net"
	"sync"
	"testing"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

func testGenesis() types.Hash {
	var g types.Hash
	g[0], g[31] = 0xAA, 0x55
	return g
}

// newTestTransport builds and starts a listening transport with timeouts
// tightened for tests, registered for cleanup.
func newTestTransport(t *testing.T, id string, genesis types.Hash, peers ...string) *Transport {
	t.Helper()
	tr, err := New(Config{
		NodeID:           p2p.NodeID(id),
		ListenAddr:       "127.0.0.1:0",
		Genesis:          genesis,
		Peers:            peers,
		HandshakeTimeout: 2 * time.Second,
		ReadTimeout:      2 * time.Second,
		WriteTimeout:     2 * time.Second,
		DialBackoffMin:   20 * time.Millisecond,
		DialBackoffMax:   200 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	tr.Start()
	return tr
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func hasPeer(tr *Transport, id p2p.NodeID) bool {
	for _, p := range tr.PeerIDs() {
		if p == id {
			return true
		}
	}
	return false
}

// receiveN drains tr's inbox until n protocol messages arrive or the
// timeout fires. Synthetic head announces (fabricated per connection at
// the handshake) are expected background traffic, not part of any
// test's expected stream, so they are filtered here.
func receiveN(t *testing.T, tr *Transport, n int, timeout time.Duration) []p2p.Message {
	t.Helper()
	var got []p2p.Message
	deadline := time.After(timeout)
	for len(got) < n {
		select {
		case <-tr.Wake():
		case <-time.After(20 * time.Millisecond):
		case <-deadline:
			t.Fatalf("timed out with %d/%d messages", len(got), n)
		}
		for _, m := range tr.Receive(tr.cfg.NodeID) {
			if m.Kind == p2p.MsgHeadAnnounce {
				continue
			}
			got = append(got, m)
		}
	}
	return got
}

func TestSendAndBroadcastOverTCP(t *testing.T) {
	g := testGenesis()
	a := newTestTransport(t, "a", g)
	b := newTestTransport(t, "b", g, a.Addr())
	waitFor(t, 5*time.Second, func() bool { return hasPeer(a, "b") && hasPeer(b, "a") }, "a and b connected")

	b.Broadcast("b", p2p.Message{Kind: p2p.MsgTx, Payload: []byte("hello from b")})
	msgs := receiveN(t, a, 1, 3*time.Second)
	if msgs[0].From != "b" || msgs[0].Kind != p2p.MsgTx || string(msgs[0].Payload) != "hello from b" {
		t.Errorf("a received %+v, want MsgTx %q from b", msgs[0], "hello from b")
	}

	if err := a.Send("a", "b", p2p.Message{Kind: p2p.MsgBlockRequest, Payload: bytes.Repeat([]byte{1}, 32)}); err != nil {
		t.Fatalf("Send to connected peer: %v", err)
	}
	msgs = receiveN(t, b, 1, 3*time.Second)
	if msgs[0].From != "a" || msgs[0].Kind != p2p.MsgBlockRequest {
		t.Errorf("b received %+v, want MsgBlockRequest from a", msgs[0])
	}

	if err := a.Send("a", "nobody", p2p.Message{Kind: p2p.MsgTx}); !errors.Is(err, ErrUnknownPeer) {
		t.Errorf("Send to unknown peer: err = %v, want ErrUnknownPeer", err)
	}
}

// TestRelayBurstOfAPoolIsNotShed: a node that batch-admits gossip relays
// every admitted transaction in one loop, and a pool holds up to 4096
// (txpool's default capacity). Enqueueing is a channel send; draining is a
// socket write per frame, ten times slower — so whether such a burst
// survives must not depend on the writer keeping up. With the old
// 256-frame default this shed about two thirds of the burst on a healthy
// loopback peer, and a shed transaction is never re-requested.
func TestRelayBurstOfAPoolIsNotShed(t *testing.T) {
	g := testGenesis()
	a := newTestTransport(t, "a", g)
	b := newTestTransport(t, "b", g, a.Addr())
	waitFor(t, 5*time.Second, func() bool { return hasPeer(a, "b") && hasPeer(b, "a") }, "a and b connected")

	const burst = 4096
	shed := mQueueShed.Value()
	for i := 0; i < burst; i++ {
		b.Broadcast("b", p2p.Message{Kind: p2p.MsgTx, Payload: binary.BigEndian.AppendUint32(nil, uint32(i))})
	}
	msgs := receiveN(t, a, burst, 10*time.Second)
	if got := mQueueShed.Value() - shed; got != 0 {
		t.Errorf("%d frames of a %d-frame burst were shed", got, burst)
	}
	for i, m := range msgs {
		if binary.BigEndian.Uint32(m.Payload) != uint32(i) {
			t.Fatalf("message %d carries payload %x: lost or reordered", i, m.Payload)
		}
	}
}

// TestGenesisMismatchRejected: peers whose genesis ids differ never
// register each other — one byte flipped, and a funded genesis as this
// build commits to it beside the id the store-format-2 build gave the same
// allocation, whose account digests hashed every storage slot. (An
// unfunded genesis keeps its id across that change: the empty state's
// root did not move.)
func TestGenesisMismatchRejected(t *testing.T) {
	const formatTwoFundedGenesis = "0x57d78b66b3f65154c6f376429be84417a3c608fa2c9361afc7d081c1ed3041db"
	cfg := chain.DefaultConfig(contract.New(contract.DefaultParams(), nil))
	cfg.Alloc = map[types.Address]types.Amount{wallet.NewDeterministic("funded-genesis").Address(): types.EtherAmount(1000)}
	c, err := chain.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	funded := c.Genesis().ID()
	if funded.String() == formatTwoFundedGenesis {
		t.Fatal("the funded genesis id did not move with the state root format")
	}
	flipped := testGenesis()
	flipped[0] ^= 0xFF
	var formatTwo types.Hash
	if _, err := hex.Decode(formatTwo[:], []byte(formatTwoFundedGenesis[2:])); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name string
		a, b types.Hash
	}{
		{"flipped byte", testGenesis(), flipped},
		{"store format 2", funded, formatTwo},
	} {
		t.Run(tc.name, func(t *testing.T) {
			a := newTestTransport(t, "a", tc.a)
			b := newTestTransport(t, "b", tc.b, a.Addr())

			time.Sleep(300 * time.Millisecond) // several dial+handshake attempts
			if got := a.PeerIDs(); len(got) != 0 {
				t.Errorf("a registered peers %v despite genesis mismatch", got)
			}
			if got := b.PeerIDs(); len(got) != 0 {
				t.Errorf("b registered peers %v despite genesis mismatch", got)
			}
		})
	}
}

func TestSelfConnectRejected(t *testing.T) {
	tr, err := New(Config{
		NodeID:           "loner",
		ListenAddr:       "127.0.0.1:0",
		Genesis:          testGenesis(),
		HandshakeTimeout: time.Second,
		DialBackoffMin:   20 * time.Millisecond,
		DialBackoffMax:   100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { tr.Close() })
	tr.Start()
	tr.AddPeer(tr.Addr()) // dial ourselves

	time.Sleep(300 * time.Millisecond)
	if got := tr.PeerIDs(); len(got) != 0 {
		t.Errorf("self-dial registered peers %v", got)
	}
}

// TestRawConnGarbageRejected throws non-protocol bytes at a live listener:
// the server must drop each connection without registering a peer and
// without panicking.
func TestRawConnGarbageRejected(t *testing.T) {
	g := testGenesis()
	a := newTestTransport(t, "a", g)

	var wrongVersion bytes.Buffer
	if err := WriteFrame(&wrongVersion, Frame{Kind: kindHello, Payload: encodeHello(hello{Genesis: g, NodeID: "evil"})}); err != nil {
		t.Fatal(err)
	}
	badVersion := wrongVersion.Bytes()
	badVersion[4] = ProtocolVersion + 1

	var notHello bytes.Buffer
	if err := WriteFrame(&notHello, Frame{Kind: p2p.MsgTx, Payload: []byte("first frame is not a hello")}); err != nil {
		t.Fatal(err)
	}

	for name, raw := range map[string][]byte{
		"garbage-magic": []byte("XXXXthis is not a smartcrowd stream"),
		"bad-version":   badVersion,
		"not-a-hello":   notHello.Bytes(),
		"short-hello":   {0x53, 0x43},
	} {
		conn, err := net.Dial("tcp", a.Addr())
		if err != nil {
			t.Fatalf("%s: dial: %v", name, err)
		}
		if _, err := conn.Write(raw); err != nil {
			t.Fatalf("%s: write: %v", name, err)
		}
		// The server closes after the failed handshake; drain until EOF.
		conn.SetReadDeadline(time.Now().Add(3 * time.Second))
		buf := make([]byte, 4096)
		for {
			if _, err := conn.Read(buf); err != nil {
				break
			}
		}
		conn.Close()
	}
	if got := a.PeerIDs(); len(got) != 0 {
		t.Errorf("garbage connections registered peers %v", got)
	}
}

// TestConcurrentWriters hammers one connection from many goroutines on
// both sides while the inboxes drain concurrently — the -race proof that
// per-peer queues, write loops and inbox delivery share no unsynchronized
// state.
func TestConcurrentWriters(t *testing.T) {
	g := testGenesis()
	a := newTestTransport(t, "a", g)
	b := newTestTransport(t, "b", g, a.Addr())
	waitFor(t, 5*time.Second, func() bool { return hasPeer(a, "b") && hasPeer(b, "a") }, "a and b connected")

	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for i := 0; i < writers; i++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				a.Broadcast("a", p2p.Message{Kind: p2p.MsgTx, Payload: []byte("from a")})
			}
		}()
		go func() {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				_ = b.Send("b", "a", p2p.Message{Kind: p2p.MsgTx, Payload: []byte("from b")})
			}
		}()
	}

	var fromA, fromB int
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	deadline := time.After(10 * time.Second)
drain:
	for {
		for _, m := range a.Receive("a") {
			if m.From != "b" {
				t.Errorf("a received message stamped From=%s", m.From)
			}
			fromB++
		}
		for _, m := range b.Receive("b") {
			if m.From != "a" {
				t.Errorf("b received message stamped From=%s", m.From)
			}
			fromA++
		}
		select {
		case <-done:
			// One final settle pass for frames still in flight.
			time.Sleep(200 * time.Millisecond)
			fromB += len(a.Receive("a"))
			fromA += len(b.Receive("b"))
			break drain
		case <-deadline:
			t.Fatal("writers did not finish")
		case <-time.After(10 * time.Millisecond):
		}
	}
	// Bounded queues may shed under pressure; traffic must still flow.
	if fromA == 0 || fromB == 0 {
		t.Errorf("no traffic delivered: %d from a, %d from b", fromA, fromB)
	}
}

// TestReconnectAfterRestart kills the listening side and brings a new
// transport up on the same address: the surviving dial loop must notice
// the drop and re-establish the session with the replacement.
func TestReconnectAfterRestart(t *testing.T) {
	g := testGenesis()
	a := newTestTransport(t, "a", g)
	addr := a.Addr()
	b := newTestTransport(t, "b", g, addr)
	waitFor(t, 5*time.Second, func() bool { return hasPeer(b, "a") }, "b connected to a")

	a.Close()
	waitFor(t, 5*time.Second, func() bool { return !hasPeer(b, "a") }, "b dropped a")

	// Rebind the exact address (brief retry in case the port lingers).
	var a2 *Transport
	var err error
	for i := 0; i < 50; i++ {
		a2, err = New(Config{
			NodeID:           "a2",
			ListenAddr:       addr,
			Genesis:          g,
			HandshakeTimeout: 2 * time.Second,
			ReadTimeout:      2 * time.Second,
			WriteTimeout:     2 * time.Second,
		})
		if err == nil {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	t.Cleanup(func() { a2.Close() })
	a2.Start()

	waitFor(t, 5*time.Second, func() bool { return hasPeer(b, "a2") }, "b reconnected to restarted listener")
	a2.Broadcast("a2", p2p.Message{Kind: p2p.MsgTx, Payload: []byte("back online")})
	msgs := receiveN(t, b, 1, 3*time.Second)
	if msgs[0].From != "a2" || string(msgs[0].Payload) != "back online" {
		t.Errorf("post-restart message = %+v", msgs[0])
	}
}

// countingConn counts the bytes that actually cross a connection.
type countingConn struct {
	net.Conn
	read, written int
}

func (c *countingConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.read += n
	return n, err
}

func (c *countingConn) Write(b []byte) (int, error) {
	n, err := c.Conn.Write(b)
	c.written += n
	return n, err
}

// TestWireBytesCountEncodedFrames drives a transport's read and write
// loops over a net.Pipe whose far end the test plays by hand, and holds
// smartcrowd_wire_bytes_total to the bytes that really crossed it —
// header, envelope and payload, in both directions. The same hand-played
// peer also tries to spoof the synthetic head announce, which only the
// local handshake may fabricate.
func TestWireBytesCountEncodedFrames(t *testing.T) {
	g := testGenesis()
	tr, err := New(Config{NodeID: "local", Genesis: g})
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Close()
	local, pipe := net.Pipe()
	remote := &countingConn{Conn: pipe}
	defer remote.Close()

	handshaken := make(chan struct{})
	go func() {
		defer close(handshaken)
		tr.setupConn(local, false)
	}()
	if _, err := ReadFrame(remote); err != nil {
		t.Fatalf("read local hello: %v", err)
	}
	if err := WriteFrame(remote, Frame{Kind: kindHello, Payload: encodeHello(hello{Genesis: g, NodeID: "remote"})}); err != nil {
		t.Fatal(err)
	}
	<-handshaken
	if msgs := tr.Receive("local"); len(msgs) != 1 || msgs[0].Kind != p2p.MsgHeadAnnounce || msgs[0].From != "remote" {
		t.Fatalf("handshake delivered %+v, want exactly the peer's head announce", msgs)
	}
	// The handshake runs outside the loops and is not in the counters.
	remote.read, remote.written = 0, 0
	in0, out0, unknown0 := mBytesIn.Value(), mBytesOut.Value(), mUnknownFrames.Value()
	tc := telemetry.TraceContext{TraceID: telemetry.NewTraceID(), Span: telemetry.NewSpanID(), Start: 7}

	for _, f := range []Frame{
		{Kind: p2p.MsgHeadAnnounce, Payload: p2p.EncodeHeadAnnounce(types.Hash{1}, 1<<40)},
		{Kind: p2p.MsgBlock, Payload: bytes.Repeat([]byte("b"), 300), Trace: tc, SentNanos: 9},
		{Kind: p2p.MsgTx, Payload: []byte("untraced")},
		{Kind: kindPing},
	} {
		if err := WriteFrame(remote, f); err != nil {
			t.Fatal(err)
		}
	}
	var got []p2p.Message
	waitFor(t, 3*time.Second, func() bool {
		got = append(got, tr.Receive("local")...)
		return len(got) >= 2 && mBytesIn.Value()-in0 == uint64(remote.written)
	}, "both messages delivered and the inbound byte counter to equal the bytes written into the pipe")
	if len(got) != 2 || got[0].Kind != p2p.MsgBlock || got[1].Kind != p2p.MsgTx {
		t.Fatalf("delivered %+v, want the block and the tx only", got)
	}
	if d := mUnknownFrames.Value() - unknown0; d != 1 {
		t.Fatalf("remote head announce counted unknown %d times, want 1", d)
	}

	tr.Broadcast("local", p2p.Message{Kind: p2p.MsgBlock, Payload: bytes.Repeat([]byte("c"), 500), Trace: tc})
	if err := tr.Send("local", "remote", p2p.Message{Kind: p2p.MsgTx, Payload: []byte("plain")}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := ReadFrame(remote); err != nil {
			t.Fatalf("read outbound frame %d: %v", i, err)
		}
	}
	waitFor(t, 3*time.Second, func() bool { return mBytesOut.Value()-out0 == uint64(remote.read) },
		"outbound byte counter to equal the bytes read off the pipe")
	if want := 2*(headerSize+envelopeSize) + 500 + len("plain"); remote.read != want {
		t.Fatalf("%d bytes crossed outbound, want %d", remote.read, want)
	}
}
