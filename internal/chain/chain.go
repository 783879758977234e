package chain

import (
	"errors"
	"fmt"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/critbit"
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/state"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// BlockReward is χ·ν of Eq. 8: the paper awards 5 ether per block.
const BlockReward = 5 * types.Ether

// Confirmations is the depth at which a block is final for protocol
// purposes; the paper uses Bitcoin's 6.
const Confirmations = 6

// blockGasLimit caps the total gas of one block.
const blockGasLimit = 100_000_000

// Config parameterizes a SmartCrowd chain.
type Config struct {
	// Contract is the SmartCrowd contract wired into execution.
	Contract *contract.Contract
	// Rule is what a valid header is: pow.Declared (the zero value),
	// pow.Sampled for simulated chains, or one with a Retarget config.
	Rule pow.Rule
	// ExecParallelism is ignored; kept only because the frozen benchmark
	// assigns it. Execution is serial.
	ExecParallelism int
	// Alloc pre-funds accounts in the genesis state.
	Alloc map[types.Address]types.Amount
	// Storage, when non-nil, makes the chain durable: previously committed
	// blocks are replayed on New (restoring from the newest valid state
	// snapshot when one passes verification), and every subsequent import
	// is appended to the backend before the in-memory commit (storage.go).
	// nil — the default for tests and the simulator — keeps the chain
	// purely in memory.
	Storage Storage
	// SnapshotInterval writes a durable state snapshot every N canonical
	// blocks (0 disables periodic snapshots; Close always flushes a final
	// one). Only meaningful with Storage set.
	SnapshotInterval uint64
}

// DefaultConfig returns the configuration of an in-memory chain running
// contract c under pow.Declared.
func DefaultConfig(c *contract.Contract) Config {
	return Config{Contract: c, Rule: pow.Declared}
}

// Chain errors.
var (
	ErrKnownBlock    = errors.New("chain: block already known")
	ErrStateMismatch = errors.New("chain: state root mismatch")
	ErrUnknownBlock  = errors.New("chain: unknown block")
	// ErrBelowHorizon answers a transaction lookup on a chain installed
	// from a snapshot when the hash is not indexed: receipts, proofs and
	// confirmations exist only above the snapshot height (the archival
	// horizon), so the transaction is either unknown or below it.
	ErrBelowHorizon = errors.New("chain: below the archival horizon")
)

// entry is a stored block with its execution artifacts.
type entry struct {
	// blk is the block with its transactions, or only its header (Txs
	// nil) with raw or the backend's log holding the rest, as the entries
	// a snap-join or a reopen installed (installPrefixLocked) are held; or
	// nil with raw holding the whole block, as an entry released below the
	// window (release) is held until a reader asks for its header (block).
	// Published views alias entries, so blk is swapped whole, never
	// mutated: a reader that loaded the body keeps a complete block
	// however the entry changes after. Read the header through block, the
	// transactions through body, and the pair through record.
	blk atomic.Pointer[types.Block]
	// raw is the block's EncodeBlock bytes, or nil. It is set before the
	// entry is shared — the bytes the block arrived or was sealed in, or
	// the record a reopen read back for its snapshot head and the tail it
	// replayed — or by release, just before it clears blk. It is nil for
	// an entry a reopen installed below its snapshot head: that block's
	// bytes stay in the backend's log, and Chain.logged says where.
	// Lock-free readers read raw only after loading a block with no
	// transactions, or none (record, body), so they never read it while
	// release writes it. The bytes never change: body decodes them on
	// every call rather than caching, so concurrent readers share nothing
	// mutable, and a peer's range sync copies them out undecoded
	// (ReadView.RecordsRange).
	raw []byte
	// txs memoises the block's transaction ids and report count for /v1
	// summaries (summary): computed on first use, from the body or raw.
	txs      atomic.Pointer[types.TxSummary]
	parent   *entry
	totalDif uint64
	// ex is the block's execution artifacts, nil for the entries a
	// snapshot installed (installPrefixLocked) until stateOfLocked
	// rebuilds a post-state for one. They are out of line so that those
	// entries, a reopened or snap-joined chain's whole prefix, are 64
	// bytes. An entry executed here gets ex, receipts included, before it
	// is shared, and ex is never reassigned: only an entry without
	// receipts, which the transaction index never holds, gets one later.
	// So a lock-free reader that reached an entry through a view's index
	// (ReadView.ReceiptOf) reads ex.receipts with no race; what changes
	// after is ex.post alone (dropPost, stateOfLocked).
	ex *executed
}

// executed is what executing a block produced, or a state a snapshot or
// a rebuild supplied.
type executed struct {
	// post is the block's post-state. An entry an import run executed
	// gets one only when it is the run's last (executeRunLocked): the
	// entries inside a run share that run's state, which their successors
	// rewrote, and keep their receipts alone. Any entry's post is nil once
	// it is postHorizon blocks below the canonical head (see dropPost);
	// stateOfLocked rebuilds a missing one. Every path that sets it has
	// compared its root with the header's StateRoot and taken Root, which
	// is also what makes it shareable: Root sums the trie and freezes the
	// DB, and a frozen trie is never written again, so views and Copy()s
	// may read it with no lock while later blocks execute.
	post *state.DB
	// receipts is nil exactly for genesis and the entries a snapshot
	// installed, which were never executed here.
	receipts []*Receipt
}

// post returns the entry's post-state, nil when it holds none.
func (e *entry) post() *state.DB {
	if e.ex == nil {
		return nil
	}
	return e.ex.post
}

// receipts returns the entry's receipts, nil when it was not executed
// here.
func (e *entry) receipts() []*Receipt {
	if e.ex == nil {
		return nil
	}
	return e.ex.receipts
}

// block returns the entry's block for its header and id; its Txs may be
// absent (see blk). A released entry gets a header-only block here, read
// from raw on first use and kept, so a block below the window that
// nothing reads costs its bytes alone.
func (e *entry) block() *types.Block {
	if b := e.blk.Load(); b != nil {
		return b
	}
	h, err := types.DecodeHeader(e.raw)
	if err != nil {
		panic(fmt.Sprintf("chain: a released block no longer decodes: %v", err))
	}
	e.blk.CompareAndSwap(nil, &types.Block{Header: h})
	return e.blk.Load()
}

// record returns the entry's block and, when the block is held as its
// bytes, those bytes beside its header-only block. A block with
// transactions is complete, so raw is read only when blk holds none:
// either release cleared blk, after writing raw, or raw was set before
// the entry was shared.
func (e *entry) record() (*types.Block, []byte) {
	if b := e.blk.Load(); b != nil && len(b.Txs) > 0 {
		return b, nil
	}
	return e.block(), e.raw
}

// body returns the entry's block with its transactions, decoding raw when
// the entry does not hold them. The bytes passed DecodeHeader, the record
// verifier or a decode before the entry was made, and DecodeBlock rejects
// exactly what those reject, so a failure here means memory was
// corrupted.
func (e *entry) body() *types.Block {
	b := e.blk.Load()
	if b != nil && len(b.Txs) > 0 {
		return b
	}
	if e.raw == nil {
		return b // an empty block, held whole
	}
	blk, err := types.DecodeBlock(e.raw)
	if err != nil {
		panic(fmt.Sprintf("chain: stored block %s no longer decodes: %v", e.block().ID().Short(), err))
	}
	return blk
}

// summary returns the entry's block beside its transaction summary,
// hashing the ids from raw, never decoding, when only the header is held.
// Concurrent first uses may each compute the summary; they are equal.
func (e *entry) summary() BlockSummary {
	b, raw := e.record()
	s := BlockSummary{Block: b, Txs: e.txs.Load()}
	if s.Txs != nil {
		return s
	}
	if raw == nil {
		s.Txs = b.TxSummary()
	} else {
		var err error
		if s.Txs, err = types.RecordTxSummary(raw); err != nil {
			panic(fmt.Sprintf("chain: stored block %s no longer decodes: %v", b.ID().Short(), err))
		}
	}
	e.txs.Store(s.Txs)
	return s
}

// logRecords is the prefix a reopen installed below its snapshot head,
// whose bytes stay in the backend's log: element n-1 is block n's record,
// its entry's header-only block beside where the bytes sit
// (types.StoredRecord). Such an entry holds its header and no bytes, so
// its readers here read the bytes from the log, and may fail where a
// read of bytes in memory cannot. An entry is one of them when its block
// is the very one its number's record holds: an installed prefix entry
// keeps that header-only block for good (release leaves a block with no
// transactions alone), and no other entry holds it.
type logRecords []types.BlockRecord

// of returns the record e was installed from when e's bytes are in the
// log.
func (l logRecords) of(e *entry) (types.BlockRecord, bool) {
	b := e.blk.Load()
	if b == nil || b.Header.Number == 0 || b.Header.Number > uint64(len(l)) {
		return types.BlockRecord{}, false
	}
	rec := l[b.Header.Number-1]
	return rec, rec.Block == b && rec.Stored != nil
}

// record is entry.record as a types.BlockRecord: the block with its
// transactions, or its header-only block beside its bytes, in memory or
// in the log.
func (l logRecords) record(e *entry) types.BlockRecord {
	if rec, ok := l.of(e); ok {
		return rec
	}
	b, raw := e.record()
	return types.BlockRecord{Block: b, Raw: raw}
}

// body is entry.body, reading the bytes from the log when they are there.
func (l logRecords) body(e *entry) (*types.Block, error) {
	rec, ok := l.of(e)
	if !ok {
		return e.body(), nil
	}
	raw, err := rec.Append(nil)
	if err != nil {
		return nil, fmt.Errorf("chain: read block #%d: %w", rec.Block.Header.Number, err)
	}
	return types.DecodeBlock(raw)
}

// summary is entry.summary, reading the bytes from the log when they are
// there and the summary is not yet memoised.
func (l logRecords) summary(e *entry) (BlockSummary, error) {
	rec, ok := l.of(e)
	if !ok {
		return e.summary(), nil
	}
	s := BlockSummary{Block: rec.Block, Txs: e.txs.Load()}
	if s.Txs != nil {
		return s, nil
	}
	raw, err := rec.Append(nil)
	if err != nil {
		return BlockSummary{}, fmt.Errorf("chain: read block #%d: %w", rec.Block.Header.Number, err)
	}
	if s.Txs, err = types.RecordTxSummary(raw); err != nil {
		return BlockSummary{}, err
	}
	e.txs.Store(s.Txs)
	return s, nil
}

// postHorizon is the window: a canonical entry postHorizon blocks below
// the head drops its post-state unless its number is a multiple of
// postHorizon (dropPost), so the canonical chain holds at most
// postHorizon + height/postHorizon of them, and stateOfLocked rebuilds
// any other by re-executing at most postHorizon-1 blocks; and it lets go
// of its decoded transactions (release), so at most postHorizon
// canonical blocks are held decoded.
const postHorizon = 64

// dropPost applies postHorizon's rule to a canonical entry that just fell
// postHorizon blocks below the head. An entry a snapshot installed keeps
// its state: nothing below it has one to rebuild from.
func dropPost(e *entry) {
	if e.block().Header.Number%postHorizon != 0 && e.receipts() != nil {
		e.ex.post = nil
	}
}

// release lets go of a canonical entry's decoded block as it falls
// postHorizon blocks below the head: it keeps the block's bytes, encoding
// them now if the block came without, and a reader that asks for the
// header gets one read from them (block). Callers hold the write lock.
func (e *entry) release() {
	b := e.blk.Load()
	if b == nil || len(b.Txs) == 0 {
		return // released or header-only already, or nothing to release
	}
	if e.raw == nil {
		e.raw = types.EncodeBlock(b)
	}
	e.blk.Store(nil)
}

// builtBlock is what BuildBlock computed for the block it last returned,
// kept so that importing that block does not compute it again.
type builtBlock struct {
	parent *entry
	// header is the header as built: every field but Nonce is final.
	header   types.Header
	post     *state.DB // summed: BuildBlock took its Root
	receipts []*Receipt
}

// adoptable reports whether executing blk on parent must reproduce b.
// Execution is a pure function of the parent state, Number, Time, Miner,
// the transactions and the config; stage 1 has recomputed blk's TxRoot
// from its transactions, so equal headers apart from the nonce a sealer
// searched for mean equal inputs, and so an equal post-state and receipts.
func (b *builtBlock) adoptable(parent *entry, blk *types.Block) bool {
	if b == nil || b.parent != parent {
		return false
	}
	h := blk.Header
	h.Nonce = b.header.Nonce
	return h == b.header
}

// txLoc locates a transaction on the canonical chain: its block's height
// and its position in the block. The block id and the receipt are not
// copied in: a reader takes them from the canon entry at that height in
// the same view (ReadView.ReceiptOf, TxLocation), which setHead publishes
// with the index, so an index leaf is one 80-byte object.
type txLoc struct {
	number uint64
	txIdx  int
}

// Chain is the block store plus fork choice. It is safe for concurrent
// use.
//
// Everything a ReadView shares with lock-free readers — canon, the
// transaction index, committed post-states — obeys a publish-only
// discipline: the writer may extend, path-copy or rewrite what it made
// since the last publication, but never mutates data reachable from a
// published view (see view.go for the full contract).
type Chain struct {
	mu      sync.RWMutex
	cfg     Config
	genesis *entry
	entries map[types.Hash]*entry
	head    *entry
	// canon is the canonical chain, canon[i].block().Header.Number == i;
	// its entries more than postHorizon below the head hold their blocks
	// as bytes (release).
	// Published views alias its backing array, so setHead must copy the
	// kept prefix out before truncating on a reorg — truncate-then-append
	// in place would overwrite elements older views still index.
	canon []*entry
	// txTrie maps tx hash → canonical location via a persistent crit-bit
	// trie that nothing sums: updates never touch a published node
	// (setHead), so a ReadView pins the index by holding a root pointer.
	// setHead is its only reader under the lock; every lookup goes through
	// a view.
	txTrie *critbit.Node[txLoc, struct{}]
	// horizon is the height of the snapshot this chain was installed
	// from (installPrefixLocked), 0 for one grown from genesis: blocks at
	// or below it were never executed here, so txTrie holds none of their
	// transactions.
	horizon uint64
	// logged is the prefix a reopen installed below its snapshot head,
	// whose bodies are read from the backend's log (logRecords); nil for
	// a chain that never reopened from a snapshot. Set once, before the
	// first view that holds those entries is published.
	logged logRecords
	// built memoises the last BuildBlock so a sealer's own block is
	// executed once, not once to build and again to import (see
	// executeLocked). Guarded by mu.
	built *builtBlock
	// view is the latest published read snapshot (view.go). Swapped by
	// publishView at the end of every head switch; read via CurrentView
	// with no lock.
	view atomic.Pointer[ReadView]
	// store is the durable backend (nil = memory only); persist gates
	// write-through so replay-from-storage does not re-append what the
	// backend just returned. closed refuses imports after Close. snapWG
	// tracks in-flight background snapshot writes (storage.go).
	store   Storage
	persist bool
	closed  bool
	snapWG  sync.WaitGroup
}

// New creates a chain with a genesis block derived from the config's
// allocation.
func New(cfg Config) (*Chain, error) {
	if cfg.Contract == nil {
		return nil, errors.New("chain: config requires a contract")
	}
	st := state.New()
	for addr, amount := range cfg.Alloc {
		if err := st.Credit(addr, amount); err != nil {
			return nil, fmt.Errorf("chain: genesis alloc: %w", err)
		}
	}
	genesis := &types.Block{
		Header: types.Header{
			Number:    0,
			TxRoot:    types.ComputeTxRoot(nil),
			StateRoot: st.Root(),
		},
	}
	g := &entry{ex: &executed{post: st}}
	g.blk.Store(genesis)
	c := &Chain{
		cfg:     cfg,
		genesis: g,
		entries: map[types.Hash]*entry{genesis.ID(): g},
		head:    g,
		canon:   []*entry{g},
		store:   cfg.Storage,
	}
	c.publishView()
	if c.store != nil {
		if err := c.initFromStorage(); err != nil {
			return nil, err
		}
	}
	return c, nil
}

// Genesis returns the genesis block. c.genesis is set once, in New, so
// reading it takes no lock.
func (c *Chain) Genesis() *types.Block { return c.genesis.block() }

// Head returns the current canonical head block: the published view's.
func (c *Chain) Head() *types.Block { return c.CurrentView().Head() }

// HeadNumber returns the canonical height: the published view's.
func (c *Chain) HeadNumber() uint64 { return c.CurrentView().HeadNumber() }

// State returns a private copy of the published view's head state: O(1),
// and the caller may mutate it freely.
func (c *Chain) State() *state.DB { return c.CurrentView().State().Copy() }

// CanonicalBlocks returns the published view's canonical chain (including
// genesis).
func (c *Chain) CanonicalBlocks() []*types.Block {
	v := c.CurrentView()
	return v.AppendBlocksRange(make([]*types.Block, 0, v.HeadNumber()+1), 0, v.HeadNumber())
}

// stateOfLocked returns an entry's post-state, rebuilding it by
// re-execution when the entry has none — the prefix below a restored or
// snap-adopted snapshot is installed without execution (storage.go), the
// entries inside an import run get none (executeRunLocked), and deep
// canonical entries drop theirs (dropPost). Callers hold the write lock.
func (c *Chain) stateOfLocked(e *entry) (*state.DB, error) {
	if post := e.post(); post != nil {
		return post, nil
	}
	// Walk back to the nearest ancestor that still has a state.
	var pending []*entry
	cursor := e
	for cursor.post() == nil {
		pending = append(pending, cursor)
		cursor = cursor.parent
		if cursor == nil {
			return nil, errors.New("chain: no ancestor with a materialized state")
		}
	}
	st := cursor.post().Copy()
	for i := len(pending) - 1; i >= 0; i-- {
		blk, err := c.logged.body(pending[i])
		if err != nil {
			return nil, fmt.Errorf("chain: rebuild state: %w", err)
		}
		if _, err := execBlock(c.cfg, st, blk); err != nil {
			return nil, fmt.Errorf("chain: rebuild state: %w", err)
		}
	}
	// Prefix headers below a snapshot were shape-checked only, so this is
	// the first time this root is compared; it also sums the trie before
	// the entry shares it (the rule every committed post-state obeys).
	if root := st.Root(); root != e.block().Header.StateRoot {
		return nil, fmt.Errorf("%w: rebuilt %s, header %s",
			ErrStateMismatch, root.Short(), e.block().Header.StateRoot.Short())
	}
	if e.ex == nil {
		e.ex = &executed{}
	}
	e.ex.post = st
	return st, nil
}

// BlockByID returns the EncodeBlock bytes of a known block, canonical or
// not: the bytes the entry holds, never a decode of them, a copy read
// from the log for an entry a reopen left there (which may fail), and an
// encoding only for an entry that holds none (an empty block, or one
// inserted without its bytes). The caller must not modify them. It reads
// under the lock because a side block is in no view (a view holds the
// canonical chain only), and the lock keeps release from writing raw
// meanwhile.
func (c *Chain) BlockByID(id types.Hash) ([]byte, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownBlock, id.Short())
	}
	if e.raw != nil {
		return e.raw[:len(e.raw):len(e.raw)], nil
	}
	if rec, ok := c.logged.of(e); ok {
		return rec.Append(nil)
	}
	return types.EncodeBlock(e.blk.Load()), nil
}

// HasBlock reports whether the block is known (canonical or not). Locked
// for the reason BlockByID is.
func (c *Chain) HasBlock(id types.Hash) bool {
	c.mu.RLock()
	defer c.mu.RUnlock()
	_, ok := c.entries[id]
	return ok
}

// InsertBlock validates, executes and stores a block, switching the head
// when the new branch has greater total difficulty. It returns true when
// the canonical head changed.
//
// It is the single-block face of the two-stage pipeline InsertChain runs:
// stage 1 (the rule's seal, tx-root merkle, sender recovery, payload
// validation) executes with no lock held, and only stage 2 — the
// parent-contextual checks, execution and commit — runs under the chain
// mutex. Single-block and batch import therefore cannot diverge.
func (c *Chain) InsertBlock(blk *types.Block) (bool, error) {
	return c.InsertBlockTraced(types.BlockRecord{Block: blk}, telemetry.TraceContext{})
}

// InsertBlockTraced is InsertBlock for a record, carrying the block's
// trace context. rec.Block must hold the transactions; rec.Raw, when set,
// is its encoding, which the chain keeps instead of encoding the block
// when the block falls below the window. A head switch caused by this
// block publishes its lifecycle events (new head, SRAs, verdicts) stamped
// with the trace, so a consumer watching /v1/events can tie a head change
// back to the seal that produced it.
func (c *Chain) InsertBlockTraced(rec types.BlockRecord, tc telemetry.TraceContext) (bool, error) {
	blk := rec.Block
	// Fast duplicate path: skip the expensive stateless work for blocks
	// already stored (gossip redelivery, orphan reprocessing).
	if c.HasBlock(blk.ID()) {
		mImportKnown.Inc()
		return false, fmt.Errorf("%w: %s", ErrKnownBlock, blk.ID().Short())
	}
	t0 := now()
	if err := c.verifyStateless(blk, nil); err != nil {
		mStage1Ns.ObserveDuration(since(t0))
		mImportFailed.Inc()
		return false, err
	}
	mStage1Ns.ObserveDuration(since(t0))
	c.mu.Lock()
	defer c.mu.Unlock()
	t1 := now()
	one := [1]types.BlockRecord{rec}
	n, switched, err := c.insertRunLocked(one[:], tc)
	mStage2Ns.ObserveDuration(since(t1))
	recordImport(n, err)
	return switched, err
}

// InsertChain imports a batch of blocks through the two-stage verification
// pipeline: stage 1 verifies blocks' stateless properties (the rule's
// seal, tx-root merkle recomputation, ECDSA sender recovery via the shared
// pool, payload validation) in parallel across all CPUs with no
// lock held, while stage 2 serially executes and commits them under the
// chain mutex, a run at a time (insertRunLocked). Runs are cut by height
// (runEnd), and stage 2 takes a run only once stage 1 has passed all of
// it, so a batch commits the same way however the workers were scheduled;
// stage 1 keeps verifying the blocks after a run while it commits.
//
// Blocks already known to the chain are benign no-ops. Processing stops at
// the first invalid block, where stage 1 stops too; the returned count is
// the number of blocks processed (inserted or already known) before the
// failure. The mutex is taken per run, so concurrent readers and competing
// inserts interleave between runs.
func (c *Chain) InsertChain(blocks []*types.Block) (int, error) {
	recs := make([]types.BlockRecord, len(blocks))
	for i, blk := range blocks {
		recs[i].Block = blk
	}
	return c.InsertChainTraced(recs, telemetry.TraceContext{})
}

// InsertChainTraced is InsertChain for records (see InsertBlockTraced)
// under a trace context: the batch span joins the trace (so a gossiped
// block's import shows up as a child of its origin seal on any node), and
// head switches publish their events stamped with it. A zero context
// degrades to plain InsertChain.
func (c *Chain) InsertChainTraced(blocks []types.BlockRecord, tc telemetry.TraceContext) (int, error) {
	if len(blocks) == 0 {
		return 0, nil
	}
	mBatchBlocks.Observe(uint64(len(blocks)))
	span := telemetry.StartSpanIn(tc, "chain.InsertChain")

	stage1 := startVerify(len(blocks), func(stop func() bool) func(int) error {
		return func(i int) error {
			t0 := now()
			err := c.verifyStatelessAt(blocks, i, stop)
			mStage1Ns.ObserveDuration(since(t0))
			return err
		}
	})
	defer stage1.halt()

	// Stage 2: serial execution and commit in batch order. Each pass waits,
	// with no lock held, for the window the next run is cut from, and runs
	// the blocks of it stage 1 passed; a stage-1 failure is reported once
	// the blocks before it are in.
	processed := 0
	for processed < len(blocks) {
		ready, err := stage1.waitUpTo(processed, c.runEnd(blocks, processed))
		if ready > processed {
			c.mu.Lock()
			t1 := now()
			var n int
			n, _, err = c.insertRunLocked(blocks[processed:ready], tc)
			mStage2Ns.ObserveDuration(since(t1))
			c.mu.Unlock()
			recordImport(n, err)
			if errors.Is(err, ErrKnownBlock) {
				n, err = 1, nil
			}
			processed += n
		} else {
			mImportFailed.Inc()
		}
		if err != nil {
			span.End(telemetry.L("blocks", strconv.Itoa(processed)), telemetry.L("failed", "1"))
			return processed, fmt.Errorf("chain: batch block %d (#%d): %w", processed, blocks[processed].Block.Header.Number, err)
		}
	}
	span.End(telemetry.L("blocks", strconv.Itoa(processed)))
	return processed, nil
}

// verification is a stage-1 pass: up to GOMAXPROCS workers take indices
// in order, store check(i) in errs[i] and close done[i]. A worker takes
// index i only once every item at or below i-window is done, so however
// long the lowest unfinished item takes, the others check at most
// window-1 items past it. Once an item fails no item past it is checked,
// and a check in progress past it stops between transactions: its result
// would never be read.
type verification struct {
	errs   []error
	done   []chan struct{}
	window int
	// failed is the lowest index whose check failed, n while none has and
	// -1 once the caller halts.
	failed atomic.Int64
	wg     sync.WaitGroup // the workers
}

// verifyWindowPerWorker sets the claim window: this many items per worker
// past the lowest unfinished one (DESIGN.md §12).
const verifyWindowPerWorker = 2

// startVerify starts a verification of n items, each worker running the
// check newCheck returns for it (so a check may keep per-worker scratch).
// The check may poll stop, safely from any goroutine, between the parts
// of an item; it reports that the item's result will not be read.
func startVerify(n int, newCheck func(stop func() bool) func(i int) error) *verification {
	v := &verification{errs: make([]error, n), done: make([]chan struct{}, n)}
	for i := range v.done {
		v.done[i] = make(chan struct{})
	}
	v.failed.Store(int64(n))
	workers := min(runtime.GOMAXPROCS(0), n)
	v.window = verifyWindowPerWorker * workers
	var cursor atomic.Int64
	for ; workers > 0; workers-- {
		v.wg.Add(1)
		go v.work(&cursor, newCheck)
	}
	return v
}

// work is one worker: it claims the next index, waits until the index is
// inside the window, and checks it unless an earlier item has failed.
func (v *verification) work(cursor *atomic.Int64, newCheck func(stop func() bool) func(i int) error) {
	defer v.wg.Done()
	var cur atomic.Int64 // the item being checked, read by stop
	check := newCheck(func() bool { return v.failed.Load() < cur.Load() })
	edge := 0 // every item below edge is done
	for {
		i := int(cursor.Add(1)) - 1
		if i >= len(v.errs) {
			return
		}
		for ; edge <= i-v.window; edge++ {
			<-v.done[edge]
		}
		cur.Store(int64(i))
		if v.failed.Load() < int64(i) {
			v.errs[i] = types.ErrCheckStopped
		} else if v.errs[i] = check(i); v.errs[i] != nil {
			for f := v.failed.Load(); int64(i) < f && !v.failed.CompareAndSwap(f, int64(i)); f = v.failed.Load() {
			}
		}
		close(v.done[i])
	}
}

// halt stops the workers and waits for them to give up the items they
// hold.
func (v *verification) halt() {
	v.failed.Store(-1)
	v.wg.Wait()
}

// wait blocks until item i, which no earlier item failed before, is
// checked and returns its result.
func (v *verification) wait(i int) error {
	<-v.done[i]
	return v.errs[i]
}

// waitUpTo blocks until items from to end-1 are checked, or the first of
// them that fails is, and returns where the passed items end: end, or the
// failed item's index beside its error.
func (v *verification) waitUpTo(from, end int) (int, error) {
	for i := from; i < end; i++ {
		if err := v.wait(i); err != nil {
			return i, err
		}
	}
	return end, nil
}

// verifyStatelessAt runs stage-1 verification for blocks[i], adding the
// rule's link check (number, timestamp, difficulty retarget) when the
// predecessor in the batch is the block's parent — it needs no chain
// state, so failing fast here keeps bad batches from reaching the serial
// stage. stop is the pass's (see startVerify).
func (c *Chain) verifyStatelessAt(blocks []types.BlockRecord, i int, stop func() bool) error {
	blk := blocks[i].Block
	if i > 0 && blk.Header.ParentID == blocks[i-1].Block.ID() {
		if err := c.cfg.Rule.Link(&blocks[i-1].Block.Header, &blk.Header); err != nil {
			return err
		}
	}
	return c.verifyStateless(blk, stop)
}

// verifyStateless runs every check that needs no chain context, cheapest
// first: the rule's seal, then the block's shape — tx-root merkle
// recomputation, sender recovery (parallel, via the shared pool, polling
// stop between transactions) and structural transaction validation — so
// a block with a bad seal or root costs no recovery. It holds no locks;
// the chain config is immutable after New.
func (c *Chain) verifyStateless(blk *types.Block, stop func() bool) error {
	if err := c.cfg.Rule.Seal(&blk.Header); err != nil {
		return err
	}
	return blk.VerifyShape(stop)
}

// maxRun caps an import run. A run ends at a height that is a multiple of
// postHorizon (endsRun), so it holds at most postHorizon blocks: the head
// switch committing it never drops the post-state of an entry in it, and
// stateOfLocked rebuilds an entry inside it, which keeps no post-state,
// from the run's parent in at most maxRun-1 blocks.
const maxRun = postHorizon

// endsRun reports whether a block at height n ends its import run: a
// multiple of postHorizon, whose entry keeps its post-state below the
// window (dropPost), or of the snapshot interval, whose post-state is
// saved (maybeSnapshotLocked).
func (c *Chain) endsRun(n uint64) bool {
	return n%postHorizon == 0 || c.cfg.SnapshotInterval != 0 && n%c.cfg.SnapshotInterval == 0
}

// runEnd returns the end of the window the run from blocks[from] is cut
// from: just past the first block from there whose height ends a run, or
// the end of the batch, and at most maxRun blocks on. A run may end
// sooner, at a block that does not extend it or that fails.
func (c *Chain) runEnd(blocks []types.BlockRecord, from int) int {
	end := min(len(blocks), from+maxRun)
	for i := from; i < end; i++ {
		if c.endsRun(blocks[i].Block.Header.Number) {
			return i + 1
		}
	}
	return end
}

// insertRunLocked runs stage 2 for blocks whose stage 1 passed: the run at
// their head (executeRunLocked), committed as one (commitLocked) — one
// storage append, one index generation and one published view however
// many blocks it holds. It returns how many blocks it committed, whether
// the head switched to the last of them, and the error of the block after
// them, if one ended the run. A single block, the block BuildBlock built
// and a side branch are runs like any other. Callers hold the write lock.
func (c *Chain) insertRunLocked(blocks []types.BlockRecord, tc telemetry.TraceContext) (int, bool, error) {
	run, err := c.executeRunLocked(blocks)
	if len(run) == 0 {
		return 0, false, err
	}
	// Every block after the first has positive difficulty, so the run's
	// last block is the head exactly when importing the blocks one by one
	// would have left it there.
	switched := run[len(run)-1].totalDif > c.head.totalDif
	if cerr := c.commitLocked(run, switched, tc); cerr != nil {
		return 0, false, cerr
	}
	return len(run), switched, err
}

// executeRunLocked executes the run at the head of blocks — blocks[0],
// new with a known parent, and each next block that extends the one
// before, up to a height that ends a run — on one state.DB in one trie
// generation: each block is held to its header's root by RootUnfrozen, so
// the next rewrites in place the paths the run made. Only the run's last
// entry gets a post-state, frozen by Root. A block that fails ends the
// run without it: the entries before it come back with its error, the
// last given its post-state by a rebuild, since the failed block wrote on
// the run's state. Nothing holds the entries yet. Callers hold the write
// lock.
func (c *Chain) executeRunLocked(blocks []types.BlockRecord) ([]*entry, error) {
	if c.closed {
		return nil, ErrClosed
	}
	first := blocks[0].Block
	if _, known := c.entries[first.ID()]; known {
		return nil, fmt.Errorf("%w: %s", ErrKnownBlock, first.ID().Short())
	}
	parent, ok := c.entries[first.Header.ParentID]
	if !ok {
		return nil, fmt.Errorf("%w: %s", pow.ErrUnknownParent, first.Header.ParentID.Short())
	}
	var (
		run []*entry
		st  *state.DB
		err error
	)
	for j, rec := range blocks {
		blk := rec.Block
		if j > 0 && (c.endsRun(parent.block().Header.Number) || !c.extends(parent, blk)) {
			break
		}
		var receipts []*Receipt
		if st, receipts, err = c.executeLocked(parent, st, blk); err != nil {
			break
		}
		e := &entry{
			parent:   parent,
			totalDif: parent.totalDif + blk.Header.Difficulty,
			ex:       &executed{receipts: receipts},
		}
		if len(blk.Txs) > 0 { // an empty block has nothing to release
			e.raw = rec.Raw
		}
		e.blk.Store(blk)
		run = append(run, e)
		parent = e
	}
	if len(run) == 0 {
		return nil, err
	}
	if err != nil {
		if _, rerr := c.stateOfLocked(parent); rerr != nil {
			return nil, rerr
		}
		return run, err
	}
	st.Root()
	parent.ex.post = st
	return run, nil
}

// extends reports whether blk may follow parent, a run's last entry, in
// the run: it is new, parent's child, and raises the total difficulty,
// so that committing the run switches the head where importing its
// blocks one at a time would.
func (c *Chain) extends(parent *entry, blk *types.Block) bool {
	_, known := c.entries[blk.ID()]
	return !known && blk.Header.ParentID == parent.block().ID() && blk.Header.Difficulty > 0
}

// executeLocked executes blk on top of parent — on st, the run's state,
// which holds parent's post-state, or, for a run's first block (st nil),
// on a copy of parent's post-state, or by adopting the execution
// BuildBlock already did — and holds the result to the header's root
// without freezing it. It returns the state the run goes on with, nil
// with the error when the block fails. Callers hold the write lock.
func (c *Chain) executeLocked(parent *entry, st *state.DB, blk *types.Block) (*state.DB, []*Receipt, error) {
	if err := c.cfg.Rule.Link(&parent.block().Header, &blk.Header); err != nil {
		return nil, nil, err
	}

	// A block this chain built itself arrives with its execution already
	// done. Anything else — a peer's block, or one a sealer changed beyond
	// the nonce — is executed here; both are held to the header's root.
	var receipts []*Receipt
	if b := c.built; b.adoptable(parent, blk) {
		st, receipts, c.built = b.post, b.receipts, nil
	} else {
		if st == nil {
			parentState, err := c.stateOfLocked(parent)
			if err != nil {
				return nil, nil, err
			}
			st = parentState.Copy()
		}
		var err error
		if receipts, err = execBlock(c.cfg, st, blk); err != nil {
			return nil, nil, err
		}
	}
	if root := st.RootUnfrozen(); root != blk.Header.StateRoot {
		return nil, nil, fmt.Errorf("%w: computed %s, header %s",
			ErrStateMismatch, root.Short(), blk.Header.StateRoot.Short())
	}
	return st, receipts, nil
}

// commitLocked commits executed entries, each the parent of the next.
// Write-ahead: their blocks and the head that holds after them (the last
// entry when switched) reach disk in one append before memory changes, so
// a storage failure rejects the whole run. Then the entries are stored
// and, when switched, one head switch publishes them. Callers hold the
// write lock.
func (c *Chain) commitLocked(run []*entry, switched bool, tc telemetry.TraceContext) error {
	last := run[len(run)-1]
	if c.store != nil && c.persist {
		head := c.head
		if switched {
			head = last
		}
		blocks := make([]*types.Block, len(run))
		for i, e := range run {
			blocks[i] = e.block()
		}
		t0 := now()
		err := c.store.AppendBlocks(blocks, head.block().ID(), head.block().Header.Number)
		mStoreAppendNs.ObserveDuration(since(t0))
		if err != nil {
			return fmt.Errorf("chain: durable append: %w", err)
		}
	}
	for _, e := range run {
		c.entries[e.block().ID()] = e
	}
	// A build on this parent that was not this block is a stale seal now:
	// let go of its post-state rather than pin it until the next build.
	if c.built != nil && c.built.parent == run[0].parent {
		c.built = nil
	}
	if switched {
		c.setHead(last, tc)
		c.maybeSnapshotLocked(last) // a snapshot height ends its run
	}
	return nil
}

// setHead switches the canonical chain to the branch ending at e,
// rebuilds the transaction index across the changed suffix, and
// publishes a fresh ReadView.
//
// Because published views alias canon and the index trie, the rebuild
// never mutates shared structure: the trie is written under one fresh
// critbit generation per head switch, so it rewrites only nodes made
// since the last publishView (the freeze point) and path-copies the
// rest, and a reorg copies the kept prefix of canon into a fresh array
// before appending — truncating in place and re-appending would
// overwrite the abandoned suffix older views still read.
func (c *Chain) setHead(e *entry, tc telemetry.TraceContext) {
	gen := critbit.NewGen()
	// Build the new canonical path back to a block already canonical.
	var path []*entry
	cursor := e
	for {
		n := cursor.block().Header.Number
		if n < uint64(len(c.canon)) && c.canon[n] == cursor {
			break
		}
		path = append(path, cursor)
		cursor = cursor.parent
	}
	forkPoint := cursor.block().Header.Number
	if forkPoint+1 < uint64(len(c.canon)) {
		mReorgs.Inc()
		// Reorg: unindex the abandoned suffix, decoding what lies below
		// the window. An entry a snapshot installed was never indexed.
		for _, ab := range c.canon[forkPoint+1:] {
			if ab.receipts() == nil {
				continue
			}
			for _, tx := range ab.body().Txs {
				c.txTrie = critbit.Delete(c.txTrie, tx.Hash(), gen)
			}
		}
		c.canon = append([]*entry(nil), c.canon[:forkPoint+1]...)
	}

	// Append the new suffix (path is head→forkPoint+1, reverse it).
	// Lifecycle events for the newly-canonical blocks are published as
	// the index is rebuilt: after a reorg the re-canonicalized suffix
	// re-emits, which SSE consumers must treat as the authoritative
	// replay, exactly like re-reading the chain. The bus stamps event
	// timestamps itself, so no wall-clock read happens under c.mu. The
	// entry that falls postHorizon blocks below the head drops its
	// post-state (dropPost) and its body (release).
	for i := len(path) - 1; i >= 0; i-- {
		en := path[i]
		c.canon = append(c.canon, en)
		n := en.block().Header.Number
		if n >= postHorizon {
			deep := c.canon[n-postHorizon]
			dropPost(deep)
			deep.release()
		}
		receipts := en.receipts()
		if receipts == nil {
			continue // installed from a snapshot: indexes nothing
		}
		blk := en.body()
		if blk != en.block() {
			en.blk.Store(blk) // released on a branch that lost, canonical again
		}
		for j, tx := range blk.Txs {
			c.txTrie = critbit.Set(c.txTrie, tx.Hash(), txLoc{number: n, txIdx: j}, gen)
			if tx.Kind == types.TxSRA && receipts[j].Success {
				if sra, err := tx.SRA(); err == nil {
					telemetry.PublishEvent("sra", tc, map[string]string{
						"id":    sra.ID.String(),
						"block": strconv.FormatUint(n, 10),
					})
				}
			}
			if tx.Kind == types.TxDetailedReport && receipts[j].Success {
				if r, err := tx.DetailedReport(); err == nil {
					telemetry.PublishEvent("verdict", tc, map[string]string{
						"sra":   r.SRAID.String(),
						"block": strconv.FormatUint(n, 10),
					})
				}
			}
		}
	}
	c.head = e
	mHeadHeight.Set(int64(e.block().Header.Number))
	c.publishView()
	telemetry.PublishEvent("head", tc, map[string]string{
		"number": strconv.FormatUint(e.block().Header.Number, 10),
		"id":     e.block().ID().String(),
		"txs":    strconv.Itoa(len(e.block().Txs)),
	})
}

// lookupTx finds a transaction in an index that starts above horizon. A
// miss on a chain installed from a snapshot cannot tell "unknown" from
// "at or below the snapshot", so it answers ErrBelowHorizon, naming the
// height.
func lookupTx(idx *critbit.Node[txLoc, struct{}], horizon uint64, txHash types.Hash) (txLoc, error) {
	loc, ok := critbit.Get(idx, txHash)
	switch {
	case ok:
		return loc, nil
	case horizon > 0:
		return txLoc{}, fmt.Errorf("%w: tx %s is not above block %d, the lowest this node indexes from",
			ErrBelowHorizon, txHash.Short(), horizon)
	default:
		return txLoc{}, fmt.Errorf("%w: tx %s not on canonical chain", ErrUnknownBlock, txHash.Short())
	}
}

// BuildBlock executes txs on top of the given parent and returns an
// unsealed block with correct roots, ready for a sealer to find the nonce.
// Invalid transactions cause an error; miners filter their pool first.
// The chain remembers the most recent build: inserting that block, with
// whatever nonce, commits this execution instead of repeating it.
func (c *Chain) BuildBlock(parentID types.Hash, miner types.Address, timestamp, difficulty uint64, txs []*types.Transaction) (*types.Block, error) {
	// Resolve the parent state under the write lock: a parent below a
	// restored snapshot has no post-state until stateOfLocked rebuilds and
	// stores it. Execution below runs unlocked on the copy.
	c.mu.Lock()
	parent, ok := c.entries[parentID]
	if !ok {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", pow.ErrUnknownParent, parentID.Short())
	}
	parentState, err := c.stateOfLocked(parent)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	st := parentState.Copy()
	number := parent.block().Header.Number + 1
	c.mu.Unlock()

	blk := &types.Block{
		Header: types.Header{
			ParentID:   parentID,
			Number:     number,
			Time:       timestamp,
			Difficulty: difficulty,
			Miner:      miner,
			TxRoot:     types.ComputeTxRoot(txs),
		},
		Txs: txs,
	}
	receipts, err := execBlock(c.cfg, st, blk)
	if err != nil {
		return nil, err
	}
	blk.Header.StateRoot = st.Root()
	c.mu.Lock()
	c.built = &builtBlock{parent: parent, header: blk.Header, post: st, receipts: receipts}
	c.mu.Unlock()
	return blk, nil
}
