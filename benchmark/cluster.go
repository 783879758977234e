package benchmark

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/detection"
	"github.com/smartcrowd/smartcrowd/internal/node"
	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/rpc"
	"github.com/smartcrowd/smartcrowd/internal/store"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
	"github.com/smartcrowd/smartcrowd/internal/wire"
)

const (
	// confirmations is K, the paper's 6-block rule.
	confirmations = 6
	// difficulty 1 keeps the PoW predicate on every import while removing
	// the geometric nonce lottery, which is noise and not this code's work.
	difficulty = 1
	// snapshotInterval matches the node command's default.
	snapshotInterval = 512
	// pumpFallback is the node command's timer fallback for its gossip pump.
	pumpFallback = 100 * time.Millisecond
)

// logBuffer captures the process log; any line it holds at the end of a
// run is a finding (the level is warn).
type logBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (l *logBuffer) Write(p []byte) (int, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.Write(p)
}

func (l *logBuffer) String() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.buf.String()
}

// nodeSpec describes one node of the in-process cluster.
type nodeSpec struct {
	name    string
	datadir string
	alloc   map[types.Address]types.Amount
	// images are registered with the node's own GroundTruthVerifier: the
	// only way a node can be told an image's ground truth.
	images []*lifecycle
	// preload is imported (and persisted) before the node goes online.
	preload [][]byte
	peers   []string
	serve   bool // expose /v1 on 127.0.0.1:0
}

// benchNode is one "process" of the cluster: provider + own transport +
// own datadir + own HTTP server, wired as cmd/smartcrowd/node.go wires
// them, minus the OS-process boundary.
type benchNode struct {
	name     string
	prov     *node.ProviderNode
	contract *contract.Contract
	tr       *wire.Transport
	nt       *nodeTrace
	url      string

	httpSrv  *http.Server
	httpDone chan struct{}

	pumpStop  chan struct{}
	pumpDone  chan struct{}
	pumpCalls atomic.Int64
	// afterPump runs on the pump goroutine each time HandleMessages
	// returns; set before startPump.
	afterPump func()
}

// openNode opens the datadir, builds the chain (replaying whatever the
// datadir holds) and imports the preload: store.Open + node.NewProvider,
// exactly what a restarting node does before it goes online.
func openNode(rec *recorder, spec nodeSpec) (*benchNode, error) {
	n := &benchNode{name: spec.name, nt: &nodeTrace{rec: rec, node: spec.name}}
	verifier := detection.NewGroundTruthVerifier(false)
	for _, lc := range spec.images {
		verifier.Register(lc.sraID, lc.image)
	}
	n.contract = contract.New(contract.DefaultParams(), verifier)
	cfg := chain.DefaultConfig(n.contract)
	cfg.ExecParallelism = runtime.GOMAXPROCS(0)
	cfg.Alloc = spec.alloc
	cfg.SnapshotInterval = snapshotInterval
	disk, err := store.Open(spec.datadir)
	if err != nil {
		return nil, err
	}
	cfg.Storage = disk
	if rec != nil {
		cfg.Storage = &timedStorage{Storage: disk, nt: n.nt}
	}
	n.prov, err = node.NewProvider(p2p.NodeID(spec.name), wallet.NewDeterministic("scbench-node-"+spec.name), cfg, nil)
	if err != nil {
		_ = disk.Close()
		return nil, err
	}
	if err := importWire(n.prov.Chain(), spec.preload); err != nil {
		_ = n.prov.Chain().Close()
		return nil, fmt.Errorf("node %s: preload: %w", spec.name, err)
	}
	return n, nil
}

// goOnline attaches a transport that dials peers and, if serve is set,
// brings the HTTP API up. The pump is started separately so callers can
// hook it first.
func (n *benchNode) goOnline(peers []string, serve bool) error {
	var err error
	n.tr, err = wire.New(wire.Config{
		NodeID:     n.prov.ID(),
		ListenAddr: "127.0.0.1:0",
		Genesis:    n.prov.Chain().Genesis().ID(),
		Peers:      peers,
		Head: func() (types.Hash, uint64) {
			head := n.prov.Chain().Head()
			return head.ID(), head.Header.Number
		},
	})
	if err != nil {
		return err
	}
	if n.nt.rec != nil {
		n.prov.AttachTransport(&timedTransport{Transport: n.tr, nt: n.nt})
	} else {
		n.prov.AttachTransport(n.tr)
	}
	n.tr.Start()
	if serve {
		return n.serve()
	}
	return nil
}

// startNode is openNode followed by goOnline.
func startNode(rec *recorder, spec nodeSpec) (*benchNode, error) {
	n, err := openNode(rec, spec)
	if err != nil {
		return nil, err
	}
	if err := n.goOnline(spec.peers, spec.serve); err != nil {
		_ = n.close()
		return nil, err
	}
	return n, nil
}

// importWire decodes a node's private copy of an encoded chain segment
// and imports it in sync-sized batches.
func importWire(c *chain.Chain, encoded [][]byte) error {
	const batch = 256
	for len(encoded) > 0 {
		n := min(batch, len(encoded))
		blocks := make([]*types.Block, n)
		for i, raw := range encoded[:n] {
			blk, err := types.DecodeBlock(raw)
			if err != nil {
				return err
			}
			blocks[i] = blk
		}
		if _, err := c.InsertChain(blocks); err != nil {
			return err
		}
		encoded = encoded[n:]
	}
	return nil
}

func (n *benchNode) serve() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("node %s: rpc listen: %w", n.name, err)
	}
	var handler http.Handler = rpc.NewServerWith(n.prov, n.contract, rpc.Config{})
	if n.nt.rec != nil {
		handler = timedHandler(handler, n.nt)
	}
	n.httpSrv = rpc.NewHTTPServer(ln.Addr().String(), handler, 0)
	n.httpDone = make(chan struct{})
	n.url = "http://" + ln.Addr().String()
	go func() {
		defer close(n.httpDone)
		if err := n.httpSrv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintf(os.Stderr, "scbench: node %s: rpc: %v\n", n.name, err)
		}
	}()
	return nil
}

// startPump runs the node's gossip pump, the benchmark-owned counterpart
// of the loop in cmd/smartcrowd/node.go: drain whenever the transport
// signals, with the same timer fallback.
func (n *benchNode) startPump() {
	n.pumpStop = make(chan struct{})
	n.pumpDone = make(chan struct{})
	go func() {
		defer close(n.pumpDone)
		tick := time.NewTicker(pumpFallback)
		defer tick.Stop()
		for {
			select {
			case <-n.tr.Wake():
			case <-tick.C:
			case <-n.pumpStop:
				return
			}
			n.pumpOnce()
		}
	}()
}

func (n *benchNode) pumpOnce() {
	n.pumpCalls.Add(1)
	rec := n.nt.rec
	if !rec.enabled() {
		n.prov.HandleMessages()
	} else {
		id := rec.reserve()
		n.nt.curPump.Store(id)
		t0 := time.Now()
		n.prov.HandleMessages()
		t1 := time.Now()
		n.nt.curPump.Store(0)
		msgs, blocks, txKeys := n.nt.takePump()
		if msgs > 0 {
			rec.add(span{ID: id, Name: spanPump, Node: n.name, N: msgs, Blocks: blocks}, t0, t1)
		}
		for _, key := range txKeys {
			if at, ok := rec.takeSent(key); ok {
				rec.add(span{Name: spanTxHop, Node: n.name, Parent: id, key: key}, at, t1)
			}
		}
	}
	if n.afterPump != nil {
		n.afterPump()
	}
}

func (n *benchNode) head() uint64 { return n.prov.Chain().HeadNumber() }

// addrs lists the addresses the node listens on.
func (n *benchNode) addrs() []string {
	var out []string
	if n.tr != nil {
		out = append(out, n.tr.Addr())
	}
	if n.url != "" {
		out = append(out, strings.TrimPrefix(n.url, "http://"))
	}
	return out
}

// The four shutdown steps, each idempotent, so a cluster can run them in
// order across all nodes: HTTP servers, transports, pumps, chains.

func (n *benchNode) closeHTTP() {
	if n.httpSrv != nil {
		_ = n.httpSrv.Close()
		<-n.httpDone
		n.httpSrv = nil
	}
}

func (n *benchNode) closeTransport() {
	if n.tr != nil {
		_ = n.tr.Close()
	}
}

func (n *benchNode) stopPump() {
	if n.pumpStop != nil {
		close(n.pumpStop)
		<-n.pumpDone
		n.pumpStop = nil
	}
}

func (n *benchNode) closeChain() error {
	if n.prov == nil {
		return nil
	}
	return n.prov.Chain().Close()
}

func (n *benchNode) close() error {
	n.closeHTTP()
	n.closeTransport()
	n.stopPump()
	return n.closeChain()
}

// headHint is the one thing read from the observer's memory: "your head
// moved", published by its pump. Waiters then look through HTTP.
type headHint struct {
	mu sync.Mutex
	n  uint64
	ch chan struct{}
}

func (h *headHint) set(n uint64) {
	h.mu.Lock()
	if n != h.n {
		h.n = n
		close(h.ch)
		h.ch = make(chan struct{})
	}
	h.mu.Unlock()
}

func (h *headHint) current() uint64 {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.n
}

// wait blocks until the hinted head is at least need.
func (h *headHint) wait(ctx context.Context, need uint64) (uint64, error) {
	for {
		h.mu.Lock()
		n, ch := h.n, h.ch
		h.mu.Unlock()
		if n >= need {
			return n, nil
		}
		select {
		case <-ch:
		case <-ctx.Done():
			return n, ctx.Err()
		}
	}
}

// cluster is the set of nodes a workload runs against. nodes[0] is the
// only sealer (no forks, so counts repeat); the last node is the observer
// consumers read from; entry is where clients POST.
type cluster struct {
	rec                     *recorder
	nodes                   []*benchNode
	sealer, entry, observer *benchNode
	powSealer               pow.Sealer
	hint                    headHint

	kick     chan struct{}
	sealStop chan struct{}
	sealDone chan struct{}

	mu sync.Mutex
	// seals accumulates what the sealer loop saw; reset per round.
	seals sealStats
	// lastNonEmpty is the number of the newest block that carried
	// transactions; sealing continues until it has K confirmations.
	lastNonEmpty uint64
	lagSince     time.Time
	sealErr      error
}

// sealStats is the sealer loop's own bookkeeping (always on; it costs two
// clock reads per block).
type sealStats struct {
	blocks      int
	txsPerBlock []float64
	sealMs      []float64
	lagMs       []float64
	pendingMax  int
}

// clusterSpec sizes a cluster.
type clusterSpec struct {
	root    string
	names   []string
	alloc   map[types.Address]types.Amount
	images  []*lifecycle
	preload [][]byte
}

// startCluster brings the nodes up as a full mesh (each node dials the
// ones before it), waits until every node sees every other, and starts
// the pumps. It does not start sealing.
func startCluster(rec *recorder, spec clusterSpec) (*cluster, error) {
	c := &cluster{
		rec:       rec,
		kick:      make(chan struct{}, 1),
		powSealer: &pow.CPUSealer{Threads: 1},
	}
	c.hint.ch = make(chan struct{})
	var peers []string
	for _, name := range spec.names {
		n, err := startNode(rec, nodeSpec{
			name:    name,
			datadir: filepath.Join(spec.root, "node-"+name),
			alloc:   spec.alloc,
			images:  spec.images,
			preload: spec.preload,
			peers:   peers,
			serve:   true,
		})
		if err != nil {
			c.close()
			return nil, err
		}
		c.nodes = append(c.nodes, n)
		peers = append(peers, n.tr.Addr())
	}
	c.sealer = c.nodes[0]
	c.observer = c.nodes[len(c.nodes)-1]
	c.entry = c.sealer
	if len(c.nodes) > 2 {
		c.entry = c.nodes[1]
	}
	c.sealer.nt.marksBlocks, c.sealer.nt.closesTxs = true, true
	c.observer.nt.closesBlocks = true
	c.entry.nt.marksTxs = c.entry != c.sealer
	if rec != nil {
		c.powSealer = &timedSealer{Sealer: c.powSealer, nt: c.sealer.nt}
	}

	deadline := time.Now().Add(10 * time.Second)
	for _, n := range c.nodes {
		for len(n.tr.PeerIDs()) < len(c.nodes)-1 {
			if time.Now().After(deadline) {
				c.close()
				return nil, fmt.Errorf("node %s: mesh not formed (%d peers)", n.name, len(n.tr.PeerIDs()))
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	c.hint.set(c.observer.head())
	for _, n := range c.nodes {
		n := n
		n.afterPump = func() {
			if n == c.observer {
				c.hint.set(n.head())
			}
			select {
			case c.kick <- struct{}{}:
			default:
			}
		}
		n.startPump()
	}
	return c, nil
}

// startSealing runs the demand-lockstep sealer: the sealer node seals iff
// every follower's head equals its own and either its pool is non-empty
// or the last non-empty block has fewer than K confirmations. The check
// runs when a pump returns (kick), never on a timer, so followers are
// never driven behind and block counts repeat from run to run.
func (c *cluster) startSealing() {
	c.sealStop = make(chan struct{})
	c.sealDone = make(chan struct{})
	go func() {
		defer close(c.sealDone)
		for {
			select {
			case <-c.kick:
			case <-c.sealStop:
				return
			}
			for c.shouldSeal() {
				if _, err := c.sealOnce(); err != nil {
					select {
					case <-c.sealStop:
					default:
						c.mu.Lock()
						c.sealErr = err
						c.mu.Unlock()
					}
					return
				}
			}
		}
	}()
}

func (c *cluster) shouldSeal() bool {
	head := c.sealer.head()
	for _, n := range c.nodes[1:] {
		if n.head() != head {
			return false
		}
	}
	pending := c.sealer.prov.PoolLen()
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.lagSince.IsZero() {
		now := time.Now()
		c.seals.lagMs = append(c.seals.lagMs, ms(now.Sub(c.lagSince)))
		if c.rec.enabled() {
			c.rec.add(span{Name: spanFollowerLag, Node: c.sealer.name, Ref: fmt.Sprintf("blk%d", head)}, c.lagSince, now)
		}
		c.lagSince = time.Time{}
	}
	c.seals.pendingMax = max(c.seals.pendingMax, pending)
	return pending > 0 || (c.lastNonEmpty > 0 && head < c.lastNonEmpty+confirmations-1)
}

// sealOnce seals and publishes one block on the sealer node.
func (c *cluster) sealOnce() (*types.Block, error) {
	nt := c.sealer.nt
	traced := c.rec.enabled()
	var id int32
	if traced {
		id = c.rec.reserve()
		nt.curSeal.Store(id)
	}
	t0 := time.Now()
	blk, err := c.sealer.prov.SealAndPublish(c.powSealer, uint64(t0.UnixMilli()), difficulty, 0, c.sealStop)
	t1 := time.Now()
	if traced {
		nt.curSeal.Store(0)
	}
	if err != nil {
		return nil, err
	}
	num := blk.Header.Number
	if traced {
		ref := fmt.Sprintf("blk%d", num)
		c.rec.nameKey(nt.lastBlockKey.Load(), ref)
		c.rec.add(span{ID: id, Name: spanSealPublish, Node: c.sealer.name, Ref: ref, N: len(blk.Txs)}, t0, t1)
	}
	c.mu.Lock()
	c.seals.blocks++
	c.seals.txsPerBlock = append(c.seals.txsPerBlock, float64(len(blk.Txs)))
	c.seals.sealMs = append(c.seals.sealMs, ms(t1.Sub(t0)))
	if len(blk.Txs) > 0 {
		c.lastNonEmpty = num
	}
	c.lagSince = t1
	c.mu.Unlock()
	return blk, nil
}

// takeSeals returns and resets the sealer loop's statistics.
func (c *cluster) takeSeals() sealStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.seals
	c.seals = sealStats{}
	return s
}

func (c *cluster) sealError() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sealErr
}

func (c *cluster) addrs() []string {
	var out []string
	for _, n := range c.nodes {
		out = append(out, n.addrs()...)
	}
	return out
}

func (c *cluster) pumpCalls() int64 {
	var total int64
	for _, n := range c.nodes {
		total += n.pumpCalls.Load()
	}
	return total
}

// settle waits until every node reports the sealer's head (the pumps
// drain whatever gossip is still in flight).
func (c *cluster) settle(ctx context.Context) error {
	for {
		head := c.sealer.prov.Chain().Head().ID()
		same := true
		for _, n := range c.nodes[1:] {
			if n.prov.Chain().Head().ID() != head {
				same = false
			}
		}
		if same {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("nodes did not settle on one head: %w", ctx.Err())
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// verifyAgreement is the end-of-run output check: all nodes report the
// same head id and state root.
func (c *cluster) verifyAgreement() error {
	head := c.sealer.prov.Chain().Head()
	root := c.sealer.prov.Chain().State().Root()
	for _, n := range c.nodes[1:] {
		h := n.prov.Chain().Head()
		if h.ID() != head.ID() {
			return fmt.Errorf("node %s head %d (%s) differs from sealer head %d (%s)",
				n.name, h.Header.Number, h.ID().Short(), head.Header.Number, head.ID().Short())
		}
		if r := n.prov.Chain().State().Root(); r != root {
			return fmt.Errorf("node %s state root %s differs from sealer's %s", n.name, r.Short(), root.Short())
		}
	}
	if head.Header.StateRoot != root {
		return fmt.Errorf("head %d commits to root %s, state hashes to %s",
			head.Header.Number, head.Header.StateRoot.Short(), root.Short())
	}
	return nil
}

// close stops the sealer, then closes HTTP servers, transports, pumps and
// chains, in that order. Safe on a partly built cluster.
func (c *cluster) close() error {
	if c.sealStop != nil {
		close(c.sealStop)
		<-c.sealDone
		c.sealStop = nil
	}
	for _, n := range c.nodes {
		n.closeHTTP()
	}
	for _, n := range c.nodes {
		n.closeTransport()
	}
	for _, n := range c.nodes {
		n.stopPump()
	}
	var first error
	for _, n := range c.nodes {
		if err := n.closeChain(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// quietLogs routes the process log to a buffer at warn level and returns
// the buffer plus a restore function.
func quietLogs() (*logBuffer, func()) {
	buf := &logBuffer{}
	prev := telemetry.LogLevel()
	telemetry.SetLogLevel(telemetry.LevelWarn)
	telemetry.SetLogOutput(buf)
	return buf, func() {
		telemetry.SetLogOutput(os.Stderr)
		telemetry.SetLogLevel(prev)
	}
}
