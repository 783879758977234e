package wire

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// Config parameterizes a TCP transport. NodeID and Genesis are required;
// everything else has serviceable defaults.
type Config struct {
	// NodeID is this process's network identity, exchanged in the
	// handshake. A wire transport hosts exactly one node.
	NodeID p2p.NodeID
	// ListenAddr is the TCP address to accept peers on ("" = dial-only).
	// Use ":0" to bind an ephemeral port and read it back via Addr.
	ListenAddr string
	// Genesis pins the chain identity; handshakes with a different
	// genesis are rejected, so two testnets on one host cannot cross.
	Genesis types.Hash
	// Peers are addresses to dial and keep dialed: each gets a dial loop
	// with exponential backoff plus jitter that re-dials on disconnect.
	Peers []string
	// Head, when set, is consulted during handshakes to advertise the
	// local canonical head. The peer's advertised head reaches the node
	// as a synthetic MsgHeadAnnounce; catching up is the node's decision.
	Head func() (id types.Hash, number uint64)

	// HandshakeTimeout bounds the hello exchange (default 5s).
	HandshakeTimeout time.Duration
	// ReadTimeout is the per-frame read deadline; idle connections are
	// kept alive by pings sent every ReadTimeout/3 (default 90s).
	ReadTimeout time.Duration
	// WriteTimeout is the per-frame write deadline (default 10s).
	WriteTimeout time.Duration
	// DialBackoffMin/Max bound the exponential re-dial backoff
	// (defaults 250ms and 15s); actual sleeps are jittered to
	// [backoff/2, backoff] so restarting fleets do not thundering-herd.
	DialBackoffMin, DialBackoffMax time.Duration
	// QueueSize bounds each peer's outbound frame queue (default 4096).
	// A full queue sheds its oldest frame — slow peers lag, they do not
	// stall the node or grow memory without bound. The default is the
	// transaction pool's default capacity: a node queues frames in one
	// loop — the bodies answering a tx-request (up to 1024), the pushes
	// of a client burst it is the entry point of — far faster than the
	// writer's one socket write per frame drains them, and a queue
	// shorter than such a loop sheds transactions on a healthy peer
	// (DESIGN.md §8.4).
	QueueSize int
}

func (cfg Config) withDefaults() Config {
	if cfg.HandshakeTimeout <= 0 {
		cfg.HandshakeTimeout = 5 * time.Second
	}
	if cfg.ReadTimeout <= 0 {
		cfg.ReadTimeout = 90 * time.Second
	}
	if cfg.WriteTimeout <= 0 {
		cfg.WriteTimeout = 10 * time.Second
	}
	if cfg.DialBackoffMin <= 0 {
		cfg.DialBackoffMin = 250 * time.Millisecond
	}
	if cfg.DialBackoffMax < cfg.DialBackoffMin {
		cfg.DialBackoffMax = 15 * time.Second
	}
	if cfg.QueueSize <= 0 {
		cfg.QueueSize = 4096
	}
	return cfg
}

// peer is one live, handshaken connection.
type peer struct {
	id   p2p.NodeID
	conn net.Conn
	// out holds pointers so that a queue sized for the largest gossip burst
	// (Config.QueueSize) costs 8 bytes a slot, not a 72-byte Frame, whether
	// or not the burst ever comes.
	out    chan *Frame
	done   chan struct{}
	dialed bool // we initiated the connection
	once   sync.Once
}

// Transport is a TCP implementation of p2p.Transport. All methods are
// safe for concurrent use.
type Transport struct {
	cfg Config
	ln  net.Listener

	mu     sync.Mutex
	peers  map[p2p.NodeID]*peer
	inbox  []p2p.Message
	closed bool

	wake chan struct{}
	stop chan struct{}
	wg   sync.WaitGroup
}

var _ p2p.Transport = (*Transport)(nil)

// ErrUnknownPeer is returned by Send for destinations with no live
// connection.
var ErrUnknownPeer = errors.New("wire: no connection to peer")

// New creates a transport and, if ListenAddr is set, binds its listener.
// Call Start to begin accepting and dialing.
func New(cfg Config) (*Transport, error) {
	cfg = cfg.withDefaults()
	if cfg.NodeID == "" {
		return nil, errors.New("wire: config requires a NodeID")
	}
	t := &Transport{
		cfg:   cfg,
		peers: make(map[p2p.NodeID]*peer),
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
	}
	if cfg.ListenAddr != "" {
		ln, err := net.Listen("tcp", cfg.ListenAddr)
		if err != nil {
			return nil, fmt.Errorf("wire: listen %s: %w", cfg.ListenAddr, err)
		}
		t.ln = ln
	}
	return t, nil
}

// Start launches the accept loop and one dial loop per configured peer.
func (t *Transport) Start() {
	if t.ln != nil {
		t.wg.Add(1)
		go t.acceptLoop()
	}
	for _, addr := range t.cfg.Peers {
		t.AddPeer(addr)
	}
}

// AddPeer starts a persistent dial loop towards addr at runtime.
func (t *Transport) AddPeer(addr string) {
	t.wg.Add(1)
	go t.dialLoop(addr)
}

// Addr returns the bound listen address ("" for dial-only transports).
func (t *Transport) Addr() string {
	if t.ln == nil {
		return ""
	}
	return t.ln.Addr().String()
}

// Close tears the transport down: listener, dial loops, and every peer.
func (t *Transport) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	peers := make([]*peer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.mu.Unlock()

	close(t.stop)
	if t.ln != nil {
		_ = t.ln.Close()
	}
	for _, p := range peers {
		t.teardown(p)
	}
	t.wg.Wait()
	return nil
}

// --- p2p.Transport ---------------------------------------------------------

// Join is a no-op: a wire transport hosts exactly the configured node.
func (t *Transport) Join(p2p.NodeID) {}

// Send queues msg for the named peer. Unknown peers error — the caller's
// retry/backfill logic decides what that means.
func (t *Transport) Send(_, to p2p.NodeID, msg p2p.Message) error {
	t.mu.Lock()
	p, ok := t.peers[to]
	t.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownPeer, to)
	}
	t.enqueue(p, &Frame{Kind: msg.Kind, Payload: msg.Payload, Trace: msg.Trace})
	return nil
}

// Broadcast queues msg for every connected peer.
func (t *Transport) Broadcast(_ p2p.NodeID, msg p2p.Message) {
	t.mu.Lock()
	peers := make([]*peer, 0, len(t.peers))
	for _, p := range t.peers {
		peers = append(peers, p)
	}
	t.mu.Unlock()
	mFanout.Observe(uint64(len(peers)))
	f := &Frame{Kind: msg.Kind, Payload: msg.Payload, Trace: msg.Trace}
	for _, p := range peers {
		t.enqueue(p, f)
	}
}

// Receive drains the messages delivered for the local node.
func (t *Transport) Receive(id p2p.NodeID) []p2p.Message {
	if id != t.cfg.NodeID {
		return nil
	}
	t.mu.Lock()
	msgs := t.inbox
	t.inbox = nil
	t.mu.Unlock()
	return msgs
}

// Wake signals (capacity-1, non-blocking) whenever a message lands in the
// inbox, so drivers can block on it instead of polling Receive.
func (t *Transport) Wake() <-chan struct{} { return t.wake }

// Peers implements p2p.Transport: the local node's connected peers.
func (t *Transport) Peers(id p2p.NodeID) []p2p.NodeID {
	if id != t.cfg.NodeID {
		return nil
	}
	return t.PeerIDs()
}

// PeerIDs returns the ids of the currently connected peers.
func (t *Transport) PeerIDs() []p2p.NodeID {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]p2p.NodeID, 0, len(t.peers))
	for id := range t.peers {
		out = append(out, id)
	}
	return out
}

// --- connection management -------------------------------------------------

func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.stop:
				return
			default:
			}
			// Transient accept failure; brief pause avoids a hot loop.
			time.Sleep(50 * time.Millisecond)
			continue
		}
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			t.setupConn(conn, false)
		}()
	}
}

// dialLoop keeps one configured peer dialed: exponential backoff with
// jitter between attempts, reset on success, and a park while a duplicate
// connection to the same node already exists.
func (t *Transport) dialLoop(addr string) {
	defer t.wg.Done()
	backoff := t.cfg.DialBackoffMin
	connectedBefore := false
	for {
		select {
		case <-t.stop:
			return
		default:
		}
		mDialAttempts.Inc()
		conn, err := net.DialTimeout("tcp", addr, t.cfg.HandshakeTimeout)
		if err != nil {
			mDialFailures.Inc()
			if !t.sleep(jitter(backoff)) {
				return
			}
			backoff = nextBackoff(backoff, t.cfg.DialBackoffMax)
			continue
		}
		p, ok := t.setupConn(conn, true)
		if p == nil && !ok {
			// Handshake failed; treat like a dial failure.
			if !t.sleep(jitter(backoff)) {
				return
			}
			backoff = nextBackoff(backoff, t.cfg.DialBackoffMax)
			continue
		}
		if !ok {
			// Duplicate: a live connection to this node already exists.
			// Park until it drops, then resume dialing promptly.
			select {
			case <-p.done:
			case <-t.stop:
				return
			}
			backoff = t.cfg.DialBackoffMin
			continue
		}
		if connectedBefore {
			mReconnects.Inc()
		}
		connectedBefore = true
		backoff = t.cfg.DialBackoffMin
		select {
		case <-p.done:
		case <-t.stop:
			return
		}
		if !t.sleep(jitter(t.cfg.DialBackoffMin)) {
			return
		}
	}
}

// setupConn handshakes a fresh connection and registers the peer. The
// returns are (peer, true) on success, (existing, false) when deduplicated
// against a live connection, and (nil, false) on handshake failure.
func (t *Transport) setupConn(conn net.Conn, dialed bool) (*peer, bool) {
	h, err := t.handshake(conn)
	if err != nil {
		handshakeFailure(handshakeFailReason(err)).Inc()
		_ = conn.Close()
		return nil, false
	}
	p := &peer{
		id:     h.NodeID,
		conn:   conn,
		out:    make(chan *Frame, t.cfg.QueueSize),
		done:   make(chan struct{}),
		dialed: dialed,
	}

	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		_ = conn.Close()
		return nil, false
	}
	if existing, dup := t.peers[p.id]; dup {
		// Simultaneous dials create two connections per pair. Both sides
		// keep the one initiated by the smaller node id so they agree
		// without coordination.
		keepNew := (t.cfg.NodeID < p.id) == p.dialed && (t.cfg.NodeID < p.id) != existing.dialed
		if !keepNew {
			t.mu.Unlock()
			handshakeFailure("duplicate").Inc()
			_ = conn.Close()
			return existing, false
		}
		t.mu.Unlock()
		t.teardown(existing)
		t.mu.Lock()
		if t.closed || t.peers[p.id] != nil {
			t.mu.Unlock()
			_ = conn.Close()
			return nil, false
		}
	}
	t.peers[p.id] = p
	mPeers.Set(int64(len(t.peers)))
	t.mu.Unlock()
	mHandshakesOK.Inc()
	if dialed {
		mDialSuccesses.Inc()
	}

	t.wg.Add(2)
	go func() { defer t.wg.Done(); t.readLoop(p) }()
	go func() { defer t.wg.Done(); t.writeLoop(p) }()

	// Tell the node's syncer the head this peer advertised in its hello,
	// so it can decide whether to snap-sync from it. The announce is
	// fabricated here and only here: the kind is never accepted off the
	// socket (see readLoop), so a remote peer cannot spoof another's head.
	t.deliver(p2p.Message{
		From:    p.id,
		Kind:    p2p.MsgHeadAnnounce,
		Payload: p2p.EncodeHeadAnnounce(h.HeadID, h.HeadNumber),
	})
	return p, true
}

// teardown closes a peer exactly once and unregisters it.
func (t *Transport) teardown(p *peer) {
	p.once.Do(func() {
		close(p.done)
		_ = p.conn.Close()
		t.mu.Lock()
		if t.peers[p.id] == p {
			delete(t.peers, p.id)
			mPeers.Set(int64(len(t.peers)))
		}
		t.mu.Unlock()
		mDisconnects.Inc()
	})
}

// readLoop decodes frames off the socket and delivers protocol messages
// into the inbox. Any codec or socket error drops the connection — the
// dial loop (if any) will re-establish it.
func (t *Transport) readLoop(p *peer) {
	defer t.teardown(p)
	for {
		if err := p.conn.SetReadDeadline(time.Now().Add(t.cfg.ReadTimeout)); err != nil {
			return
		}
		f, err := ReadFrame(p.conn)
		if err != nil {
			return
		}
		mFramesIn.Inc()
		mBytesIn.Add(uint64(f.encodedSize()))
		switch f.Kind {
		case kindPing, kindHello:
			continue
		case p2p.MsgHeadAnnounce:
			// Synthetic-only kind: a remote frame claiming it is hostile
			// or confused either way.
			mUnknownFrames.Inc()
		case p2p.MsgTx, p2p.MsgBlock, p2p.MsgBlockRequest:
			if f.Trace.Valid() {
				observePropagation(f)
			}
			t.deliver(p2p.Message{From: p.id, Kind: f.Kind, Payload: f.Payload, Trace: f.Trace})
		case p2p.MsgSnapRequest, p2p.MsgSnapManifest, p2p.MsgSnapChunk,
			p2p.MsgSnapChunkRequest, p2p.MsgRangeRequest, p2p.MsgRangeBlocks,
			p2p.MsgAnnounce, p2p.MsgTxRequest:
			t.deliver(p2p.Message{From: p.id, Kind: f.Kind, Payload: f.Payload, Trace: f.Trace})
		default:
			mUnknownFrames.Inc()
		}
	}
}

// writeLoop drains the peer's outbound queue under per-frame write
// deadlines, pinging when idle so the remote read deadline never fires on
// a healthy connection.
func (t *Transport) writeLoop(p *peer) {
	defer t.teardown(p)
	ping := time.NewTicker(t.cfg.ReadTimeout / 3)
	defer ping.Stop()
	for {
		var f Frame
		select {
		case queued := <-p.out:
			f = *queued // a broadcast shares one frame among the peers' queues
		case <-ping.C:
			f = Frame{Kind: kindPing}
		case <-p.done:
			return
		}
		if err := p.conn.SetWriteDeadline(time.Now().Add(t.cfg.WriteTimeout)); err != nil {
			return
		}
		if f.Trace.Valid() {
			// Stamp the send time last, so the receiver's one-hop
			// measurement excludes our queueing delay as little as
			// possible (it still includes the socket write).
			f.SentNanos = time.Now().UnixNano()
		}
		if err := WriteFrame(p.conn, f); err != nil {
			return
		}
		mFramesOut.Inc()
		mBytesOut.Add(uint64(f.encodedSize()))
	}
}

// enqueue adds a frame to a peer's bounded outbound queue, shedding the
// oldest queued frame when full: fresh chain state beats stale gossip,
// and a stalled peer can always re-request what it missed.
func (t *Transport) enqueue(p *peer, f *Frame) {
	for {
		select {
		case p.out <- f:
			mQueueDepth.Observe(uint64(len(p.out)))
			return
		default:
		}
		select {
		case <-p.out:
			mQueueShed.Inc()
		default:
		}
	}
}

// deliver appends a message to the inbox and signals Wake.
func (t *Transport) deliver(msg p2p.Message) {
	t.mu.Lock()
	t.inbox = append(t.inbox, msg)
	t.mu.Unlock()
	select {
	case t.wake <- struct{}{}:
	default:
	}
}

// sleep waits d unless the transport is closing; it reports whether the
// caller should continue.
func (t *Transport) sleep(d time.Duration) bool {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-t.stop:
		return false
	}
}

// jitter spreads a backoff uniformly over [d/2, d].
func jitter(d time.Duration) time.Duration {
	if d <= 1 {
		return d
	}
	return d/2 + time.Duration(rand.Int63n(int64(d/2)))
}

// nextBackoff doubles towards the cap.
func nextBackoff(d, max time.Duration) time.Duration {
	d *= 2
	if d > max {
		return max
	}
	return d
}
