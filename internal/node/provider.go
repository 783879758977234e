// Package node implements SmartCrowd's three stakeholder roles (paper
// §IV-A):
//
//   - ProviderNode — a full node: verifies and stores SRAs and detection
//     reports, maintains the blockchain, mines blocks, and earns rewards;
//   - DetectorNode — a lightweight detector (paper §V-B): no local chain;
//     it scans released systems and drives the two-phase report protocol;
//   - Consumer — a query client that reads the blockchain as the
//     authoritative reference before deploying an IoT system.
package node

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/txpool"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// maxOrphans bounds the per-node orphan buffer. Orphans are blocks whose
// ancestry has not arrived yet; an unbounded buffer would let a peer park
// arbitrary junk in memory forever.
const maxOrphans = 128

// maxBlockTraces bounds the block-id → trace-context association a node
// keeps so backfill replies can carry the block's original trace.
const maxBlockTraces = 512

// nodeLog is the package's structured logger.
var nodeLog = telemetry.Log("node")

// ProviderNode is a mining IoT provider: a full SmartCrowd node.
type ProviderNode struct {
	id     p2p.NodeID
	wallet *wallet.Wallet
	net    p2p.Transport

	mu      sync.Mutex
	chain   *chain.Chain
	pool    *txpool.Pool
	orphans map[types.Hash]types.BlockRecord // parent id → block awaiting parent
	fetches fetches                          // announced items asked for (gossip.go)

	// clock reads the time for everything that expires: sync stalls and
	// in-flight fetches.
	clock func() time.Time

	// blockTraces remembers which trace a block belongs to (FIFO-bounded
	// by traceOrder), so the block's body, whoever asks for it, carries its
	// lifecycle trace instead of starting a fresh one.
	blockTraces map[types.Hash]telemetry.TraceContext
	traceOrder  []types.Hash

	// sync is the snap/replay catch-up state machine (sync.go); it has
	// its own lock so status reads never contend with block import.
	sync *syncer
	// snapServe caches the last snapshot served to joining peers.
	snapServe snapServeCache
}

// NewProvider creates a provider node with its own chain instance and
// joins it to the transport — the simulated bus or a real TCP fabric; the
// node is transport-agnostic.
func NewProvider(id p2p.NodeID, w *wallet.Wallet, cfg chain.Config, net p2p.Transport) (*ProviderNode, error) {
	c, err := chain.New(cfg)
	if err != nil {
		return nil, fmt.Errorf("node: provider %s: %w", id, err)
	}
	if net != nil {
		net.Join(id)
	}
	return &ProviderNode{
		id:          id,
		wallet:      w,
		net:         net,
		chain:       c,
		pool:        txpool.New(),
		orphans:     make(map[types.Hash]types.BlockRecord),
		fetches:     newFetches(),
		clock:       time.Now,
		blockTraces: make(map[types.Hash]telemetry.TraceContext),
		sync:        &syncer{},
	}, nil
}

// rememberTrace associates a block with its trace context, evicting the
// oldest association past the bound. Callers hold the lock.
func (p *ProviderNode) rememberTrace(id types.Hash, tc telemetry.TraceContext) {
	if !tc.Valid() {
		return
	}
	if _, ok := p.blockTraces[id]; !ok {
		p.traceOrder = append(p.traceOrder, id)
		for len(p.traceOrder) > maxBlockTraces {
			delete(p.blockTraces, p.traceOrder[0])
			p.traceOrder = p.traceOrder[1:]
		}
	}
	p.blockTraces[id] = tc
}

// TraceOf returns the trace context a block was sealed or imported
// under, if the node still remembers it.
func (p *ProviderNode) TraceOf(id types.Hash) (telemetry.TraceContext, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	tc, ok := p.blockTraces[id]
	return tc, ok
}

// PeerCount reports how many peers the transport is connected to, when
// the transport exposes that (the TCP fabric does; the simulated bus
// reports -1, meaning unknown).
func (p *ProviderNode) PeerCount() int {
	p.mu.Lock()
	net := p.net
	p.mu.Unlock()
	if pc, ok := net.(interface{ PeerIDs() []p2p.NodeID }); ok {
		return len(pc.PeerIDs())
	}
	return -1
}

// OrphanCount reports the current orphan-buffer depth.
func (p *ProviderNode) OrphanCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.orphans)
}

// ID returns the node's network identity.
func (p *ProviderNode) ID() p2p.NodeID { return p.id }

// AttachTransport wires a transport into a node constructed without one.
// The TCP transport needs the chain's genesis id before it can be built,
// and the chain lives inside the node — AttachTransport breaks that cycle:
// create the node with a nil transport, build the transport against
// Chain().Genesis().ID(), then attach before any messages flow.
func (p *ProviderNode) AttachTransport(t p2p.Transport) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.net = t
	if t != nil {
		t.Join(p.id)
	}
}

// Address returns the provider's wallet address (block rewards land here).
func (p *ProviderNode) Address() types.Address { return p.wallet.Address() }

// Wallet returns the provider's signing wallet.
func (p *ProviderNode) Wallet() *wallet.Wallet { return p.wallet }

// Chain exposes the node's chain for queries.
func (p *ProviderNode) Chain() *chain.Chain { return p.chain }

// CurrentView returns the chain's published read view (one atomic load).
func (p *ProviderNode) CurrentView() *chain.ReadView { return p.chain.CurrentView() }

// StorageStats reports the chain's persistence backend.
func (p *ProviderNode) StorageStats() chain.StorageStats { return p.chain.StorageStats() }

// PoolLen reports the pending-pool size.
func (p *ProviderNode) PoolLen() int { return p.pool.Len() }

// SubmitTx validates a locally-originated transaction, pools it and
// gossips it to peers. Local admission mints a fresh trace: the tx's
// gossip hops and eventual inclusion all parent under it.
func (p *ProviderNode) SubmitTx(tx *types.Transaction) error {
	span := telemetry.StartTrace("txpool.admit")
	p.mu.Lock()
	err := p.acceptTx(tx, span.Context())
	p.mu.Unlock()
	outcome := "ok"
	if err != nil {
		outcome = "rejected"
	}
	span.End(telemetry.L("node", string(p.id)), telemetry.L("outcome", outcome))
	return err
}

// bufferOrphan parks a block whose parent is unknown. The buffer is
// bounded and keyed by parent id, so a park can evict: a block already
// holding the same parent slot is replaced, and at capacity the incoming
// block itself is refused. Either way the drop is classified, counted and
// logged instead of disappearing silently; the returned reason ("" = no
// eviction) keeps the outcome visible to callers and tests. Callers hold
// the lock.
func (p *ProviderNode) bufferOrphan(rec types.BlockRecord) (evicted string) {
	b := rec.Block
	parent := b.Header.ParentID
	if old, ok := p.orphans[parent]; ok {
		if old.Block.ID() == b.ID() {
			return ""
		}
		evicted = "replaced"
		mOrphanReplaced.Inc()
		nodeLog.Warn("orphan buffer evicted block",
			"node", p.id, "evicted", old.Block.ID().Short(), "replacedBy", b.ID().Short(), "parent", parent.Short())
	} else if len(p.orphans) >= maxOrphans {
		mOrphanCapacity.Inc()
		nodeLog.Warn("orphan buffer full, dropping block",
			"node", p.id, "capacity", maxOrphans, "block", b.ID().Short(), "parent", parent.Short())
		return "capacity"
	}
	p.orphans[parent] = rec
	mOrphanBuffered.Inc()
	mOrphanDepth.Set(int64(len(p.orphans)))
	return evicted
}

// acceptTx pools a locally submitted transaction and pushes its body to
// every peer: this node introduces it, so nobody else can hold it yet.
// Callers hold the lock. tc is the admission trace the gossip carries.
func (p *ProviderNode) acceptTx(tx *types.Transaction, tc telemetry.TraceContext) error {
	if p.holds(p2p.MsgTx, tx.Hash()) {
		return txpool.ErrKnownTx
	}
	st := p.chain.CurrentView().State()
	if err := p.pool.Add(tx, st); err != nil {
		return err
	}
	if p.net != nil {
		p.net.Broadcast(p.id, p2p.Message{Kind: p2p.MsgTx, Payload: types.EncodeTx(tx), Trace: tc})
	}
	return nil
}

// HandleMessages drains the node's network inbox: it admits gossiped
// transactions and blocks, announces the ones it had not seen to its other
// peers, and answers announcements and requests. Consecutive transaction
// messages are admitted as one batch through the pool's parallel-recovery
// path; every other kind flushes the pending batch first, so what the node
// holds is current when a block, an announcement or a request is looked at.
func (p *ProviderNode) HandleMessages() {
	if p.net == nil {
		return
	}
	var txBatch []gossipTx
	flushTxs := func() {
		if len(txBatch) == 0 {
			return
		}
		p.mu.Lock()
		p.acceptTxs(txBatch)
		p.mu.Unlock()
		txBatch = nil
	}
	for _, msg := range p.net.Receive(p.id) {
		switch msg.Kind {
		case p2p.MsgTx:
			// Only EncodeTx's bytes decode, so the payload's digest is the
			// transaction's id: a redelivery is dropped before it is decoded.
			hash := types.HashBytes(msg.Payload)
			p.mu.Lock()
			p.arrived(hash, msg.From)
			known := p.holds(p2p.MsgTx, hash)
			p.mu.Unlock()
			if known {
				mGossipDupTx.Inc()
				continue
			}
			tx, err := types.DecodeTx(msg.Payload)
			if err != nil {
				mGossipMalformed.Inc()
				continue // malformed gossip is dropped, not propagated
			}
			txBatch = append(txBatch, gossipTx{tx: tx, from: msg.From, trace: msg.Trace})
		case p2p.MsgBlock:
			flushTxs()
			// A transaction this node admitted off gossip is pooled,
			// validated and with its sender recovered: the block takes
			// that object rather than decoding a copy with a cold memo.
			blk, err := types.DecodeBlockPooled(msg.Payload, p.pool.Get)
			if err != nil {
				mGossipMalformed.Inc()
				continue
			}
			p.mu.Lock()
			p.arrived(blk.ID(), msg.From)
			// The payload is the block's encoding (only EncodeBlock's bytes
			// decode) and this message's own buffer: the chain keeps it as
			// the block's bytes for when it falls below the window.
			p.acceptBlock(types.BlockRecord{Block: blk, Raw: msg.Payload}, msg.From, msg.Trace)
			// If the block orphaned, backfill its ancestry from the peer
			// that sent it — unless a sync session is already pulling
			// ordered ranges; crawling backwards alongside it would fetch
			// the same history twice.
			if _, missing := p.orphans[blk.Header.ParentID]; missing && !p.chain.HasBlock(blk.Header.ParentID) && !p.sync.active() {
				p.backfill(blk.Header.ParentID, msg.From)
			}
			p.mu.Unlock()
		case p2p.MsgAnnounce:
			flushTxs()
			p.handleAnnounce(msg.From, msg.Payload)
		case p2p.MsgTxRequest:
			flushTxs()
			p.handleTxRequest(msg.From, msg.Payload)
		case p2p.MsgBlockRequest:
			flushTxs()
			id, err := p2p.ParseBlockRequest(msg.Payload)
			if err != nil {
				continue // counted by the shared classified metric
			}
			raw, err := p.chain.BlockByID(id)
			if err != nil {
				continue // we don't have it either
			}
			// The body carries the block's lifecycle trace when we still
			// remember it, so a fetched or backfilled import joins the right
			// causal story, one level under ours.
			tc, _ := p.TraceOf(id)
			_ = p.net.Send(p.id, msg.From, p2p.Message{
				Kind:    p2p.MsgBlock,
				Payload: raw,
				Trace:   tc,
			})
		case p2p.MsgHeadAnnounce:
			flushTxs()
			p.handleHeadAnnounce(msg.From, msg.Payload)
		case p2p.MsgSnapRequest:
			p.handleSnapRequest(msg.From)
		case p2p.MsgSnapManifest:
			p.handleSnapManifest(msg.From, msg.Payload)
		case p2p.MsgSnapChunkRequest:
			p.handleSnapChunkRequest(msg.From, msg.Payload)
		case p2p.MsgSnapChunk:
			p.handleSnapChunk(msg.From, msg.Payload)
		case p2p.MsgRangeRequest:
			p.handleRangeRequest(msg.From, msg.Payload)
		case p2p.MsgRangeBlocks:
			flushTxs()
			p.handleRangeBlocks(msg.From, msg.Payload)
		}
	}
	flushTxs()
	p.checkSyncStall()
	p.driveFetches()
}

// acceptTxs admits a batch of gossiped transactions through the pool's
// batched admission (sender recovery fans out across the shared recovery
// pool) and announces the newly admitted ones to every peer but the one
// each came from. Callers hold the lock.
func (p *ProviderNode) acceptTxs(batch []gossipTx) {
	fresh := make([]*types.Transaction, 0, len(batch))
	from := make([]p2p.NodeID, 0, len(batch))
	batchTrace := telemetry.TraceContext{}
	// A transaction pushed by its origin and fetched from a relay can share
	// a batch, before either copy is pooled: holds knows neither, so the
	// batch itself remembers what it has taken and drops the second
	// unrecovered.
	inBatch := make(map[types.Hash]struct{}, len(batch))
	for _, g := range batch {
		hash := g.tx.Hash()
		if _, again := inBatch[hash]; again {
			mGossipDupTx.Inc()
			continue
		}
		inBatch[hash] = struct{}{}
		fresh = append(fresh, g.tx)
		from = append(from, g.from)
		if !batchTrace.Valid() && g.trace.Valid() {
			// The admission span joins the first traced tx's story;
			// spans are batch-granular, so one parent has to stand in
			// for the batch.
			batchTrace = g.trace
		}
	}
	st := p.chain.CurrentView().State()
	ids, sources := make([]types.Hash, 0, len(fresh)), from[:0]
	for i, err := range p.pool.AddAllTraced(fresh, st, batchTrace) {
		if err == nil { // duplicates and invalid txs are ignored
			ids, sources = append(ids, fresh[i].Hash()), append(sources, from[i])
		}
	}
	p.announce(p2p.MsgTx, ids, sources)
}

// acceptBlock imports a block that arrived from a peer and announces what
// it imported to the others; callers hold the lock. The block plus any
// buffered orphan descendants that now connect form one segment fed
// through the chain's pipelined InsertChain — after a partition heals, the
// backfilled ancestor pulls the whole buffered branch in as a single
// batch. Duplicate imports (a block the chain already holds) are benign
// no-ops, not failures.
//
// tc is the trace the block arrived under (zero for untraced gossip). The
// import is recorded as a child span, and that span is what the node
// remembers for the block: a peer that fetches the body from us imports it
// one level further down the origin trace.
func (p *ProviderNode) acceptBlock(rec types.BlockRecord, from p2p.NodeID, tc telemetry.TraceContext) {
	blk := rec.Block
	// A block is seen iff the chain holds it. Deciding here, before the
	// import, matters: InsertChain counts known blocks as processed, so
	// afterwards a redelivery would be indistinguishable from a new block
	// and be announced again. Every block in the segment below descends from
	// this one, so none of them can be in the chain either.
	id := blk.ID()
	if p.chain.HasBlock(id) {
		mGossipDupBlock.Inc()
		return
	}

	span := telemetry.StartSpanIn(tc, "block.import")
	p.rememberTrace(id, span.Context())

	// Collect the segment: the block plus the orphan chain hanging off it.
	segment := []types.BlockRecord{rec}
	for cursor := id; ; {
		child, ok := p.orphans[cursor]
		if !ok {
			break
		}
		delete(p.orphans, cursor)
		segment = append(segment, child)
		cursor = child.Block.ID()
	}
	mOrphanDepth.Set(int64(len(p.orphans)))

	n, err := p.chain.InsertChainTraced(segment, tc)
	span.End(
		telemetry.L("node", string(p.id)),
		telemetry.L("block", id.Short()),
		telemetry.L("inserted", strconv.Itoa(n)),
	)
	if n > 0 {
		ids, source := make([]types.Hash, n), make([]p2p.NodeID, n)
		for i, b := range segment[:n] {
			ids[i], source[i] = b.Block.ID(), from
		}
		p.announce(p2p.MsgBlock, ids, source)
		p.pool.Prune(p.chain.CurrentView().State())
	}
	if err == nil {
		return
	}
	rest := segment[n:]
	if errors.Is(err, chain.ErrKnownBlock) {
		// InsertChain treats known blocks as processed, so a known-block
		// error cannot surface here; handled defensively for the oracle's
		// sake.
		return
	}
	if errors.Is(err, chain.ErrUnknownParent) {
		// Buffer the disconnected suffix for when its ancestry arrives.
		for _, b := range rest {
			p.bufferOrphan(b)
		}
		return
	}
	// segment[n] is invalid — drop it; re-buffer the descendants we popped
	// so behavior matches per-block processing (they stay parked until
	// their parent ever arrives, which an invalid parent never will).
	for _, b := range rest[1:] {
		p.bufferOrphan(b)
	}
}

// SealAndPublish performs one round of mining, and it is the only way a
// block is sealed: it assembles a block on the current head, seals it with
// the given sealer (releasing the node lock during the search), then
// inserts, gossips and returns the sealed block, a new Block: the one
// BuildBlock returned is never written. A CPUSealer grinds a real nonce,
// the simulation's lottery stamps one, and AsBuilt keeps the built one. If
// another block lands on the head while sealing, the stale solution is
// discarded and ErrStaleSeal is returned — the caller simply tries again,
// exactly like a real miner.
//
// The block.seal root span ends on every exit, labelled with its outcome:
// ok, build-failed, aborted, stale or invalid.
func (p *ProviderNode) SealAndPublish(sealer pow.Sealer, timestamp, difficulty uint64, maxTxs int, stop <-chan struct{}) (*types.Block, error) {
	// The root of the block's lifecycle trace: build, nonce search,
	// import and every downstream gossip hop parent under this context.
	root := telemetry.StartTrace("block.seal")
	tc := root.Context()
	nodeLabel := telemetry.L("node", string(p.id))
	endRoot := func(outcome string) { root.End(nodeLabel, telemetry.L("outcome", outcome)) }

	buildSpan := telemetry.StartSpanIn(tc, "block.build")
	p.mu.Lock()
	v := p.chain.CurrentView()
	head := v.Head()
	if timestamp <= head.Header.Time {
		timestamp = head.Header.Time + 1
	}
	txs := p.pool.Pending(v.State(), maxTxs)
	blk, err := p.chain.BuildBlock(head.ID(), p.wallet.Address(), timestamp, difficulty, txs)
	p.mu.Unlock()
	buildSpan.End(nodeLabel, telemetry.L("txs", strconv.Itoa(len(txs))))
	if err != nil {
		endRoot("build-failed")
		return nil, fmt.Errorf("node: build block: %w", err)
	}

	return p.sealBuilt(root, sealer, head.ID(), blk, stop)
}

// sealBuilt is SealAndPublish after the build: it seals built, a block
// on the head headID, and inserts, gossips and returns the sealed block.
// That is a new Block: built is never written. It ends root.
func (p *ProviderNode) sealBuilt(root telemetry.Span, sealer pow.Sealer, headID types.Hash, built *types.Block, stop <-chan struct{}) (*types.Block, error) {
	tc := root.Context()
	nodeLabel := telemetry.L("node", string(p.id))
	endRoot := func(outcome string) { root.End(nodeLabel, telemetry.L("outcome", outcome)) }

	powSpan := telemetry.StartSpanIn(tc, "pow.seal")
	sealed, err := sealer.Seal(built.Header, stop)
	if err != nil {
		powSpan.End(nodeLabel, telemetry.L("outcome", "aborted"))
		endRoot("aborted")
		return nil, err
	}
	powSpan.End(nodeLabel, telemetry.L("outcome", "ok"))
	blk := &types.Block{Header: sealed, Txs: built.Txs}

	p.mu.Lock()
	defer p.mu.Unlock()
	if p.chain.Head().ID() != headID {
		endRoot("stale")
		return nil, ErrStaleSeal
	}
	// Encoded once: the chain keeps these bytes for when the block falls
	// below the window, and the peers are sent them.
	payload := types.EncodeBlock(blk)
	importSpan := telemetry.StartSpanIn(tc, "block.import")
	_, err = p.chain.InsertBlockTraced(types.BlockRecord{Block: blk, Raw: payload}, tc)
	importSpan.End(nodeLabel, telemetry.L("block", blk.ID().Short()))
	if err != nil {
		endRoot("invalid")
		return nil, fmt.Errorf("node: insert own block: %w", err)
	}
	p.rememberTrace(blk.ID(), tc)
	for _, tx := range blk.Txs {
		p.pool.Remove(tx.Hash())
	}
	p.pool.Prune(p.chain.CurrentView().State())
	if p.net != nil {
		p.net.Broadcast(p.id, p2p.Message{Kind: p2p.MsgBlock, Payload: payload, Trace: tc})
	}
	root.End(nodeLabel, telemetry.L("number", strconv.FormatUint(blk.Header.Number, 10)), telemetry.L("outcome", "ok"))
	nodeLog.WithTrace(tc).Debug("sealed and published block",
		"node", p.id, "number", blk.Header.Number, "id", blk.ID().Short(), "txs", len(blk.Txs))
	return blk, nil
}

// ErrStaleSeal reports that the chain advanced while a nonce was being
// ground; the caller should rebuild on the new head.
var ErrStaleSeal = errors.New("node: sealed block is stale (head advanced)")
