package benchmark

import (
	"encoding/json"
	"fmt"
	"hash/maphash"
	"net/http"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wire"
)

// Tracing is done from outside the program: timing decorators on the
// three interfaces it already exposes (chain.Storage, p2p.Transport,
// pow.Sealer), an http.Handler middleware in front of rpc.Server, and the
// benchmark-owned pump and sealer loops. Nothing under internal/** knows
// it is being timed. Spans stay in memory and are written when the run
// ends.

// Span names, one per layer boundary.
const (
	spanPostTx      = "rpc.post_tx"         // server side of POST /v1/tx
	spanRead        = "rpc.read"            // server side of GET /v1/*
	spanClientRead  = "rpc.client_read"     // client side of a GET: request sent → body read
	spanClientPost  = "rpc.client_post"     // client side of a POST
	spanSealPublish = "node.seal_publish"   // one SealAndPublish call on the sealer
	spanPump        = "node.pump"           // one HandleMessages call that drained messages
	spanFollowerLag = "node.follower_lag"   // seal returned → every follower at that head
	spanTxHop       = "node.tx_hop"         // Broadcast(MsgTx) on the entry node → sealer's pump returns with it
	spanPowSeal     = "pow.seal"            // Sealer.Seal
	spanAppend      = "store.append"        // Storage.AppendBlocks
	spanSnapSave    = "store.snapshot"      // Storage.SaveSnapshot
	spanLoad        = "store.load"          // Storage.Load (inside chain.New)
	spanBlockHop    = "wire.block_hop"      // Broadcast(MsgBlock) on the sealer → observer's Receive returns it
	spanRangeSend   = "wire.range_send"     // Send(MsgRangeBlocks) on a node serving range sync
	spanOp          = "bench.op"            // one end-to-end operation (lifecycle, tx, sync step)
	spanWriteVis    = "bench.write_visible" // seal returned → /v1/status on the observer shows it
)

// span is one timed interval. Start and End are nanoseconds since the
// recorder was created; Parent is the id of the span that caused it (0 =
// none known); Ref names the lifecycle, transaction or block it belongs
// to; N is a span-specific count (messages in a pump, transactions in a
// sealed block, blocks in an append), Blocks the blocks a pump received,
// Bytes a payload or response-body size.
type span struct {
	ID     int32  `json:"id"`
	Parent int32  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Node   string `json:"node,omitempty"`
	Start  int64  `json:"startNs"`
	End    int64  `json:"endNs"`
	Ref    string `json:"ref,omitempty"`
	N      int    `json:"n,omitempty"`
	Blocks int    `json:"blocks,omitempty"`
	Bytes  int    `json:"bytes,omitempty"`

	// key correlates a gossip payload across nodes until its ref is known.
	key uint64
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder collects spans. on gates every decorator, so rounds can
// alternate between traced and untraced without rebuilding the cluster.
// All methods are safe on a nil recorder, which records nothing.
type recorder struct {
	on     atomic.Bool
	t0     time.Time
	seed   maphash.Seed
	nextID atomic.Int32

	mu    sync.Mutex
	spans []span
	// sent remembers when a gossip payload left its origin, keyed by a
	// hash of the payload bytes; refs names payload keys once known.
	sent map[uint64]time.Time
	refs map[uint64]string
}

func newRecorder() *recorder {
	return &recorder{
		t0:   time.Now(),
		seed: maphash.MakeSeed(),
		sent: make(map[uint64]time.Time),
		refs: make(map[uint64]string),
	}
}

func (r *recorder) enabled() bool { return r != nil && r.on.Load() }

func (r *recorder) key(payload []byte) uint64 { return maphash.Bytes(r.seed, payload) }

// reserve hands out the id of a span that is still open, so its children
// can name it as their parent before it is recorded.
func (r *recorder) reserve() int32 { return r.nextID.Add(1) }

// add records a finished span (reserving an id unless s.ID is set).
func (r *recorder) add(s span, start, end time.Time) {
	if s.ID == 0 {
		s.ID = r.reserve()
	}
	s.Start = int64(start.Sub(r.t0))
	s.End = int64(end.Sub(r.t0))
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

// nameKey attaches a human-readable ref to a payload key.
func (r *recorder) nameKey(key uint64, ref string) {
	r.mu.Lock()
	r.refs[key] = ref
	r.mu.Unlock()
}

// markSent notes when a payload was broadcast by its origin.
func (r *recorder) markSent(key uint64, at time.Time) {
	r.mu.Lock()
	r.sent[key] = at
	r.mu.Unlock()
}

// takeSent returns and forgets a payload's broadcast time.
func (r *recorder) takeSent(key uint64) (time.Time, bool) {
	r.mu.Lock()
	at, ok := r.sent[key]
	delete(r.sent, key)
	r.mu.Unlock()
	return at, ok
}

// snapshot returns the spans recorded so far, refs resolved, ordered by
// start time.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	out := make([]span, len(r.spans))
	copy(out, r.spans)
	for i := range out {
		if out[i].Ref == "" && out[i].key != 0 {
			out[i].Ref = r.refs[out[i].key]
		}
	}
	r.mu.Unlock()
	sort.SliceStable(out, func(a, b int) bool { return out[a].Start < out[b].Start })
	return out
}

// writeTrace dumps spans as JSON.
func writeTrace(path, workload string, seed int64, spans []span) error {
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}

// --- decorators -------------------------------------------------------------

// nodeTrace is what one node's decorators share: the recorder, the node's
// name and role in gossip timing, and the open span of the benchmark-owned
// loop currently calling into the node, which store and pow spans name as
// their parent.
type nodeTrace struct {
	rec  *recorder
	node string
	// marksTxs: this node is where clients POST, so its Broadcast(MsgTx)
	// starts a transaction hop. closesTxs: this node seals, so a
	// transaction reaching its pump ends the hop. Likewise the sealer's
	// Broadcast(MsgBlock) starts a block hop and the observer's Receive
	// ends it.
	marksTxs, closesTxs, marksBlocks, closesBlocks bool

	curSeal atomic.Int32
	curPump atomic.Int32
	// lastBlockKey is the payload key of the block this node broadcast
	// last; the sealer loop names it once SealAndPublish returns.
	lastBlockKey atomic.Uint64

	// What the running pump received, collected by Receive.
	pumpMu     sync.Mutex
	pumpMsgs   int
	pumpBlocks int
	pumpTxKeys []uint64
}

func (nt *nodeTrace) parent() int32 {
	if id := nt.curSeal.Load(); id != 0 {
		return id
	}
	return nt.curPump.Load()
}

// takePump returns and resets what Receive collected.
func (nt *nodeTrace) takePump() (msgs, blocks int, txKeys []uint64) {
	nt.pumpMu.Lock()
	msgs, blocks, txKeys = nt.pumpMsgs, nt.pumpBlocks, nt.pumpTxKeys
	nt.pumpMsgs, nt.pumpBlocks, nt.pumpTxKeys = 0, 0, nil
	nt.pumpMu.Unlock()
	return msgs, blocks, txKeys
}

// timedStorage times the durable backend.
type timedStorage struct {
	chain.Storage
	nt *nodeTrace
}

func (s *timedStorage) commitBytes() int64 {
	st := s.Storage.Stats()
	return st.LogBytes + st.IndexBytes + st.WALBytes
}

func (s *timedStorage) AppendBlocks(blocks []*types.Block, headID types.Hash, headNumber uint64) error {
	if !s.nt.rec.enabled() {
		return s.Storage.AppendBlocks(blocks, headID, headNumber)
	}
	// The datadir's growth is read outside the timed interval.
	before := s.commitBytes()
	t0 := time.Now()
	err := s.Storage.AppendBlocks(blocks, headID, headNumber)
	t1 := time.Now()
	s.nt.rec.add(span{Name: spanAppend, Node: s.nt.node, Parent: s.nt.parent(),
		Ref: fmt.Sprintf("blk%d", headNumber), N: len(blocks), Bytes: int(s.commitBytes() - before)}, t0, t1)
	return err
}

func (s *timedStorage) SaveSnapshot(snap chain.StoredSnapshot) error {
	if !s.nt.rec.enabled() {
		return s.Storage.SaveSnapshot(snap)
	}
	t0 := time.Now()
	err := s.Storage.SaveSnapshot(snap)
	s.nt.rec.add(span{Name: spanSnapSave, Node: s.nt.node,
		Ref: fmt.Sprintf("blk%d", snap.Height), Bytes: len(snap.State)}, t0, time.Now())
	return err
}

func (s *timedStorage) Load(genesis types.Hash) (*chain.StoredChain, error) {
	if !s.nt.rec.enabled() {
		return s.Storage.Load(genesis)
	}
	t0 := time.Now()
	sc, err := s.Storage.Load(genesis)
	n := 0
	if sc != nil {
		n = len(sc.Blocks)
	}
	s.nt.rec.add(span{Name: spanLoad, Node: s.nt.node, N: n}, t0, time.Now())
	return sc, err
}

// timedTransport watches gossip leave and arrive. It embeds the real
// transport so PeerIDs and Wake still resolve through the node's
// interface assertions.
type timedTransport struct {
	*wire.Transport
	nt *nodeTrace
}

func (t *timedTransport) Broadcast(from p2p.NodeID, msg p2p.Message) {
	nt := t.nt
	if nt.rec.enabled() {
		switch {
		case msg.Kind == p2p.MsgTx && nt.marksTxs:
			nt.rec.markSent(nt.rec.key(msg.Payload), time.Now())
		case msg.Kind == p2p.MsgBlock && nt.marksBlocks:
			key := nt.rec.key(msg.Payload)
			nt.lastBlockKey.Store(key)
			nt.rec.markSent(key, time.Now())
		}
	}
	t.Transport.Broadcast(from, msg)
}

func (t *timedTransport) Send(from, to p2p.NodeID, msg p2p.Message) error {
	if !t.nt.rec.enabled() || msg.Kind != p2p.MsgRangeBlocks {
		return t.Transport.Send(from, to, msg)
	}
	t0 := time.Now()
	err := t.Transport.Send(from, to, msg)
	t.nt.rec.add(span{Name: spanRangeSend, Node: t.nt.node, Ref: string(to), Bytes: len(msg.Payload)}, t0, time.Now())
	return err
}

func (t *timedTransport) Receive(id p2p.NodeID) []p2p.Message {
	msgs := t.Transport.Receive(id)
	nt := t.nt
	if !nt.rec.enabled() || len(msgs) == 0 {
		return msgs
	}
	now := time.Now()
	nt.pumpMu.Lock()
	defer nt.pumpMu.Unlock()
	nt.pumpMsgs += len(msgs)
	for _, m := range msgs {
		switch m.Kind {
		case p2p.MsgBlock:
			nt.pumpBlocks++
			if !nt.closesBlocks {
				continue
			}
			key := nt.rec.key(m.Payload)
			if at, ok := nt.rec.takeSent(key); ok {
				nt.rec.add(span{Name: spanBlockHop, Node: nt.node, key: key, Bytes: len(m.Payload)}, at, now)
			}
		case p2p.MsgTx:
			if nt.closesTxs {
				nt.pumpTxKeys = append(nt.pumpTxKeys, nt.rec.key(m.Payload))
			}
		}
	}
	return msgs
}

// timedSealer times the nonce search.
type timedSealer struct {
	pow.Sealer
	nt *nodeTrace
}

func (s *timedSealer) Seal(hdr types.Header, stop <-chan struct{}) (types.Header, error) {
	if !s.nt.rec.enabled() {
		return s.Sealer.Seal(hdr, stop)
	}
	t0 := time.Now()
	out, err := s.Sealer.Seal(hdr, stop)
	s.nt.rec.add(span{Name: spanPowSeal, Node: s.nt.node, Parent: s.nt.curSeal.Load(),
		Ref: fmt.Sprintf("blk%d", hdr.Number)}, t0, time.Now())
	return out, err
}

// countingWriter counts response bytes and remembers the status.
type countingWriter struct {
	http.ResponseWriter
	status int
	bytes  int
}

func (w *countingWriter) WriteHeader(code int) {
	w.status = code
	w.ResponseWriter.WriteHeader(code)
}

func (w *countingWriter) Write(p []byte) (int, error) {
	n, err := w.ResponseWriter.Write(p)
	w.bytes += n
	return n, err
}

// timedHandler times every request the node's API serves. The span's Ref
// is "<status> <path>" so rejected posts and 304s can be counted, and
// Bytes is the response body size.
func timedHandler(next http.Handler, nt *nodeTrace) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !nt.rec.enabled() {
			next.ServeHTTP(w, r)
			return
		}
		cw := &countingWriter{ResponseWriter: w, status: http.StatusOK}
		t0 := time.Now()
		next.ServeHTTP(cw, r)
		name := spanRead
		if r.Method == http.MethodPost {
			name = spanPostTx
		}
		nt.rec.add(span{Name: name, Node: nt.node, Ref: fmt.Sprintf("%d %s", cw.status, r.URL.Path), Bytes: cw.bytes},
			t0, time.Now())
	})
}
