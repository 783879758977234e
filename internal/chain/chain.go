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

// Config parameterizes a SmartCrowd chain.
type Config struct {
	// BlockReward is χ·ν of Eq. 8 — the paper awards 5 ether per block.
	BlockReward types.Amount
	// Confirmations is the depth at which a block is final for protocol
	// purposes; the paper uses Bitcoin's 6.
	Confirmations uint64
	// Contract is the SmartCrowd contract wired into execution.
	Contract *contract.Contract
	// BlockGasLimit caps total gas per block (0 = unlimited).
	BlockGasLimit uint64
	// SkipPoWCheck disables the PoW predicate for simulated chains whose
	// sealing is sampled rather than ground (the SimSealer). Fork choice
	// still uses declared difficulties.
	SkipPoWCheck bool
	// EnforceDifficulty makes block difficulty a consensus rule: each
	// block must declare exactly the retargeted difficulty derived from
	// its parent via DifficultyRule. Live (CPU-mined) chains enable this;
	// simulated chains pin the paper's fixed 0xf00000.
	EnforceDifficulty bool
	// DifficultyRule is the retargeting rule when EnforceDifficulty is
	// set (zero value = pow.DefaultDifficultyConfig()).
	DifficultyRule pow.DifficultyConfig
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

// ExpectedDifficulty returns the difficulty a child of parent sealed at
// childTimeMillis must declare under the chain's retargeting rule.
func (cfg Config) ExpectedDifficulty(parent *types.Header, childTimeMillis uint64) uint64 {
	rule := cfg.DifficultyRule
	if rule == (pow.DifficultyConfig{}) {
		rule = pow.DefaultDifficultyConfig()
	}
	if parent.Number == 0 && parent.Difficulty == 0 {
		return rule.Minimum // first block after a difficulty-less genesis
	}
	return pow.NextDifficulty(rule, parent.Difficulty, parent.Time/1000, childTimeMillis/1000)
}

// DefaultConfig mirrors the paper's testnet: 5-ether block rewards and
// 6-block confirmation.
func DefaultConfig(c *contract.Contract) Config {
	return Config{
		BlockReward:   types.EtherAmount(5),
		Confirmations: 6,
		Contract:      c,
		BlockGasLimit: 100_000_000,
	}
}

// Chain errors.
var (
	ErrUnknownParent = errors.New("chain: unknown parent block")
	ErrKnownBlock    = errors.New("chain: block already known")
	ErrBadNumber     = errors.New("chain: block number not parent+1")
	ErrBadTimestamp  = errors.New("chain: timestamp not after parent")
	ErrStateMismatch = errors.New("chain: state root mismatch")
	ErrUnknownBlock  = errors.New("chain: unknown block")
	ErrBadDifficulty = errors.New("chain: block difficulty violates the retarget rule")
)

// entry is a stored block with its execution artifacts.
type entry struct {
	// block is the block itself, or only its header (Txs nil) when raw is
	// set; read the transactions through body. setHead's index walks read
	// block.Txs, so a header-only entry indexes nothing: its transactions
	// lie below the archival horizon.
	block *types.Block
	// raw is the block's log record, kept instead of its decoded body on
	// the entries a reopen installed below the restored snapshot
	// (installPrefixLocked). It aliases the store's whole log buffer (see
	// store.(*Disk).Load). Nothing indexes these entries, and their main
	// reader, a peer's range sync, copies raw out through RecordsRange
	// without decoding it. What still needs the body (BlockByID, /v1 block
	// pages, a side fork's re-execution) gets it from body, which decodes
	// raw on every call rather than caching: the bytes never change, and
	// concurrent readers share nothing mutable.
	raw      []byte
	parent   *entry
	totalDif uint64
	// post is the block's post-state, nil below an adopted snapshot and
	// once the entry is postHorizon blocks below the canonical head (see
	// dropPost) until stateOfLocked rebuilds it. Every path that sets it
	// has compared post.Root() with the header's StateRoot first, which is
	// also what makes it shareable: Root sums the trie and freezes the DB,
	// and a frozen trie is never written again, so views and Copy()s may
	// read it with no lock while later blocks execute.
	post *state.DB
	// receipts is nil exactly for genesis and the entries a snapshot
	// installed (installPrefixLocked), which were never executed here.
	receipts []*Receipt
}

// body returns the entry's block with its transactions. DecodeHeader
// accepted raw when the store opened, and it rejects exactly what
// DecodeBlock rejects, so a failure here means memory was corrupted.
func (e *entry) body() *types.Block {
	if e.raw == nil {
		return e.block
	}
	blk, err := types.DecodeBlock(e.raw)
	if err != nil {
		panic(fmt.Sprintf("chain: logged block %s no longer decodes: %v", e.block.ID().Short(), err))
	}
	return blk
}

// postHorizon bounds the post-states the chain keeps: a canonical entry
// postHorizon blocks below the head drops its post-state unless its
// number is a multiple of postHorizon, so the canonical chain holds at
// most postHorizon + height/postHorizon of them, and stateOfLocked
// rebuilds any other by re-executing at most postHorizon-1 blocks.
const postHorizon = 64

// dropPost applies postHorizon's rule to a canonical entry that just fell
// postHorizon blocks below the head. An entry a snapshot installed keeps
// its state: nothing below it has one to rebuild from.
func dropPost(e *entry) {
	if e.block.Header.Number%postHorizon != 0 && e.receipts != nil {
		e.post = nil
	}
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

// txLoc locates a transaction on the canonical chain.
type txLoc struct {
	blockID types.Hash
	number  uint64
	txIdx   int
	receipt *Receipt
}

// Chain is the block store plus fork choice. It is safe for concurrent
// use.
//
// Everything a ReadView shares with lock-free readers — canon, sraIndex,
// the two trie indexes, committed post-states — obeys a publish-only
// discipline: the writer may extend, path-copy or rewrite what it made
// since the last publication, but never mutates data reachable from a
// published view (see view.go for the full contract).
type Chain struct {
	mu      sync.RWMutex
	cfg     Config
	genesis *entry
	entries map[types.Hash]*entry
	head    *entry
	// canon is the canonical chain, canon[i].block.Header.Number == i.
	// Published views alias its backing array, so setHead must copy the
	// kept prefix out before truncating on a reorg — truncate-then-append
	// in place would overwrite elements older views still index.
	canon []*entry
	// txTrie maps tx hash → canonical location via a persistent crit-bit
	// trie: updates never touch a published node (setHead), so a ReadView
	// pins the index by holding a root pointer, and the chain's own locked
	// reads share the same structure.
	txTrie *critbit.Node[txLoc]
	// detTrie maps an SRA id to its canonical detection records in chain
	// order, maintained incrementally by setHead exactly like txTrie, so
	// consumer queries are a trie lookup instead of a full-chain scan.
	// Record slices are grown with full-capacity expressions so an append
	// for a new block never writes into an array a view can reach.
	detTrie *critbit.Node[[]DetectionRecord]
	// sraIndex lists successful SRA announcements on the canonical chain
	// in chain order (ascending block number), maintained by setHead. It
	// backs the paginated /v1/sras listing without scanning the chain.
	// Same copy-on-truncate rule as canon.
	sraIndex []SRARef
	// built memoises the last BuildBlock so a sealer's own block is
	// executed once, not once to build and again to import (see
	// insertVerifiedLocked). Guarded by mu.
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
	g := &entry{block: genesis, post: st}
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

// Config returns the chain configuration.
func (c *Chain) Config() Config { return c.cfg }

// Genesis returns the genesis block.
func (c *Chain) Genesis() *types.Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.genesis.block
}

// Head returns the current canonical head block.
func (c *Chain) Head() *types.Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.head.block
}

// HeadNumber returns the canonical height.
func (c *Chain) HeadNumber() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.head.block.Header.Number
}

// State returns a private copy of the state at the canonical head: O(1),
// and the caller may mutate it freely.
func (c *Chain) State() *state.DB {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.head.post.Copy()
}

// stateOfLocked returns an entry's post-state, rebuilding it by
// re-execution when the entry has none — the prefix below a restored or
// snap-adopted snapshot is installed without execution (storage.go), and
// deep canonical entries drop theirs (dropPost). Callers hold the write
// lock.
func (c *Chain) stateOfLocked(e *entry) (*state.DB, error) {
	if e.post != nil {
		return e.post, nil
	}
	// Walk back to the nearest ancestor that still has a state.
	var pending []*entry
	cursor := e
	for cursor.post == nil {
		pending = append(pending, cursor)
		cursor = cursor.parent
		if cursor == nil {
			return nil, errors.New("chain: no ancestor with a materialized state")
		}
	}
	st := cursor.post.Copy()
	for i := len(pending) - 1; i >= 0; i-- {
		if _, err := execBlock(c.cfg, st, pending[i].body()); err != nil {
			return nil, fmt.Errorf("chain: rebuild state: %w", err)
		}
	}
	// Prefix headers below a snapshot were shape-checked only, so this is
	// the first time this root is compared; it also sums the trie before
	// the entry shares it (the rule every committed post-state obeys).
	if root := st.Root(); root != e.block.Header.StateRoot {
		return nil, fmt.Errorf("%w: rebuilt %s, header %s",
			ErrStateMismatch, root.Short(), e.block.Header.StateRoot.Short())
	}
	e.post = st
	return st, nil
}

// BlockByID returns a known block.
func (c *Chain) BlockByID(id types.Hash) (*types.Block, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	e, ok := c.entries[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownBlock, id.Short())
	}
	return e.body(), nil
}

// RecordsRange returns the canonical blocks from..to (inclusive) under one
// lock acquisition, so a concurrent reorg cannot mix blocks from two
// forks into the result. Ranges past the head are truncated; an inverted
// or out-of-range request yields nil. It is built for a writer: a block a
// reopen kept as log bytes comes back as those bytes beside its
// header-only block, not decoded, so serving a peer's range sync costs a
// copy of each record.
func (c *Chain) RecordsRange(from, to uint64) []types.BlockRecord {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if from >= uint64(len(c.canon)) || to < from {
		return nil
	}
	if to >= uint64(len(c.canon)) {
		to = uint64(len(c.canon)) - 1
	}
	out := make([]types.BlockRecord, 0, to-from+1)
	for _, e := range c.canon[from : to+1] {
		out = append(out, types.BlockRecord{Block: e.block, Raw: e.raw})
	}
	return out
}

// HasBlock reports whether the block is known (canonical or not).
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
// stage 1 (sender recovery, payload validation, tx-root merkle, PoW
// predicate) executes with no lock held, and only stage 2 — the
// parent-contextual checks, execution and commit — runs under the chain
// mutex. Single-block and batch import therefore cannot diverge.
func (c *Chain) InsertBlock(blk *types.Block) (bool, error) {
	return c.InsertBlockTraced(blk, telemetry.TraceContext{})
}

// InsertBlockTraced is InsertBlock carrying the block's trace context:
// a head switch caused by this block publishes its lifecycle events (new
// head, SRAs, verdicts) stamped with the trace, so a consumer watching
// /v1/events can tie a head change back to the seal that produced it.
func (c *Chain) InsertBlockTraced(blk *types.Block, tc telemetry.TraceContext) (bool, error) {
	// Fast duplicate path: skip the expensive stateless work for blocks
	// already stored (gossip redelivery, orphan reprocessing).
	if c.HasBlock(blk.ID()) {
		mImportKnown.Inc()
		return false, fmt.Errorf("%w: %s", ErrKnownBlock, blk.ID().Short())
	}
	t0 := now()
	if err := c.verifyStateless(blk); err != nil {
		mStage1Ns.ObserveDuration(since(t0))
		mImportFailed.Inc()
		return false, err
	}
	mStage1Ns.ObserveDuration(since(t0))
	c.mu.Lock()
	defer c.mu.Unlock()
	t1 := now()
	switched, err := c.insertVerifiedLocked(blk, tc)
	mStage2Ns.ObserveDuration(since(t1))
	recordImport(err)
	return switched, err
}

// InsertChain imports a batch of blocks through the two-stage verification
// pipeline: stage 1 verifies blocks' stateless properties (ECDSA sender
// recovery via the shared pool, payload decoding, tx-root merkle
// recomputation, the PoW predicate) in parallel across all CPUs with no
// lock held, while stage 2 serially executes and commits each block under
// the chain mutex as soon as its verification lands — commit of block i
// overlaps verification of blocks i+1…n.
//
// Blocks already known to the chain are benign no-ops. Processing stops at
// the first invalid block; the returned count is the number of blocks
// processed (inserted or already known) before the failure. The mutex is
// taken per block, so concurrent readers and competing inserts interleave
// exactly as they would with sequential InsertBlock calls.
func (c *Chain) InsertChain(blocks []*types.Block) (int, error) {
	return c.InsertChainTraced(blocks, telemetry.TraceContext{})
}

// InsertChainTraced is InsertChain under a trace context: the batch span
// joins the trace (so a gossiped block's import shows up as a child of
// its origin seal on any node), and head switches publish their events
// stamped with it. A zero context degrades to plain InsertChain.
func (c *Chain) InsertChainTraced(blocks []*types.Block, tc telemetry.TraceContext) (int, error) {
	if len(blocks) == 0 {
		return 0, nil
	}
	mBatchBlocks.Observe(uint64(len(blocks)))
	span := telemetry.StartSpanIn(tc, "chain.InsertChain")

	// Stage 1: parallel stateless verification. Workers pull block indices
	// from a shared cursor and publish results through per-block channels,
	// so stage 2 consumes them in order without a global barrier.
	errs := make([]error, len(blocks))
	done := make([]chan struct{}, len(blocks))
	for i := range done {
		done[i] = make(chan struct{})
	}
	workers := runtime.GOMAXPROCS(0)
	if workers > len(blocks) {
		workers = len(blocks)
	}
	var cursor atomic.Int64
	for w := 0; w < workers; w++ {
		go func() {
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(blocks) {
					return
				}
				t0 := now()
				errs[i] = c.verifyStatelessAt(blocks, i)
				mStage1Ns.ObserveDuration(since(t0))
				close(done[i])
			}
		}()
	}

	// Stage 2: serial execution/commit in batch order.
	processed := 0
	for i, blk := range blocks {
		<-done[i]
		if errs[i] != nil {
			mImportFailed.Inc()
			span.End(telemetry.L("blocks", strconv.Itoa(processed)), telemetry.L("failed", "1"))
			return processed, fmt.Errorf("chain: batch block %d (#%d): %w", i, blk.Header.Number, errs[i])
		}
		c.mu.Lock()
		t1 := now()
		_, err := c.insertVerifiedLocked(blk, tc)
		mStage2Ns.ObserveDuration(since(t1))
		c.mu.Unlock()
		recordImport(err)
		if err != nil && !errors.Is(err, ErrKnownBlock) {
			span.End(telemetry.L("blocks", strconv.Itoa(processed)), telemetry.L("failed", "1"))
			return processed, fmt.Errorf("chain: batch block %d (#%d): %w", i, blk.Header.Number, err)
		}
		processed++
	}
	span.End(telemetry.L("blocks", strconv.Itoa(processed)))
	return processed, nil
}

// verifyStatelessAt runs stage-1 verification for blocks[i], adding the
// in-batch header-link checks (number, timestamp, difficulty retarget)
// when the predecessor in the batch is the block's parent — those need no
// chain state, so failing fast here keeps bad batches from reaching the
// serial stage.
func (c *Chain) verifyStatelessAt(blocks []*types.Block, i int) error {
	blk := blocks[i]
	if i > 0 && blk.Header.ParentID == blocks[i-1].ID() {
		if err := c.verifyHeaderLink(&blocks[i-1].Header, &blk.Header); err != nil {
			return err
		}
	}
	return c.verifyStateless(blk)
}

// verifyStateless runs every check that needs no chain context — sender
// recovery (parallel, via the shared pool), structural transaction
// validation, tx-root merkle recomputation and the PoW predicate. It
// holds no locks; the chain config is immutable after New.
func (c *Chain) verifyStateless(blk *types.Block) error {
	types.RecoverSenders(blk.Txs)
	return c.verifyShape(blk)
}

// verifyHeaderLink enforces the parent-contextual header rules: height,
// strictly increasing timestamp, and the difficulty retarget when the
// chain makes difficulty a consensus rule.
func (c *Chain) verifyHeaderLink(parent, child *types.Header) error {
	if child.Number != parent.Number+1 {
		return fmt.Errorf("%w: parent %d, block %d", ErrBadNumber, parent.Number, child.Number)
	}
	if child.Time <= parent.Time {
		return fmt.Errorf("%w: parent %d, block %d", ErrBadTimestamp, parent.Time, child.Time)
	}
	if c.cfg.EnforceDifficulty {
		want := c.cfg.ExpectedDifficulty(parent, child.Time)
		if child.Difficulty != want {
			return fmt.Errorf("%w: declared %d, retarget rule requires %d",
				ErrBadDifficulty, child.Difficulty, want)
		}
	}
	return nil
}

// insertVerifiedLocked runs stage 2 for a block whose stateless checks
// already passed: parent lookup, header-link rules, execution against the
// parent state (or adoption of BuildBlock's, when the block is the one it
// built), state-root comparison and fork choice. Callers hold the
// write lock. tc is the block's trace context, threaded into setHead's
// event publication; a zero context is fine.
func (c *Chain) insertVerifiedLocked(blk *types.Block, tc telemetry.TraceContext) (bool, error) {
	if c.closed {
		return false, ErrClosed
	}
	id := blk.ID()
	if _, known := c.entries[id]; known {
		return false, fmt.Errorf("%w: %s", ErrKnownBlock, id.Short())
	}
	parent, ok := c.entries[blk.Header.ParentID]
	if !ok {
		return false, fmt.Errorf("%w: %s", ErrUnknownParent, blk.Header.ParentID.Short())
	}
	if err := c.verifyHeaderLink(&parent.block.Header, &blk.Header); err != nil {
		return false, err
	}

	// A block this chain built itself arrives with its execution already
	// done. Anything else — a peer's block, or one a sealer changed beyond
	// the nonce — is executed here; both are held to the header's root.
	var st *state.DB
	var receipts []*Receipt
	if b := c.built; b.adoptable(parent, blk) {
		st, receipts, c.built = b.post, b.receipts, nil
	} else {
		parentState, err := c.stateOfLocked(parent)
		if err != nil {
			return false, err
		}
		st = parentState.Copy()
		if receipts, err = execBlock(c.cfg, st, blk); err != nil {
			return false, err
		}
	}
	if st.Root() != blk.Header.StateRoot {
		return false, fmt.Errorf("%w: computed %s, header %s",
			ErrStateMismatch, st.Root().Short(), blk.Header.StateRoot.Short())
	}

	e := &entry{
		block:    blk,
		parent:   parent,
		totalDif: parent.totalDif + blk.Header.Difficulty,
		post:     st,
		receipts: receipts,
	}
	switched := e.totalDif > c.head.totalDif

	// Durable write-ahead commit: the block and the fork-choice head that
	// will hold after this import reach disk before any in-memory
	// structure changes. A storage failure rejects the import outright —
	// memory never runs ahead of what a restart can recover.
	if c.store != nil && c.persist {
		headE := c.head
		if switched {
			headE = e
		}
		t0 := now()
		err := c.store.AppendBlocks([]*types.Block{blk}, headE.block.ID(), headE.block.Header.Number)
		mStoreAppendNs.ObserveDuration(since(t0))
		if err != nil {
			return false, fmt.Errorf("chain: durable append: %w", err)
		}
	}
	c.entries[id] = e
	// A build on this parent that was not this block is a stale seal now:
	// let go of its post-state rather than pin it until the next build.
	if c.built != nil && c.built.parent == parent {
		c.built = nil
	}

	if switched {
		c.setHead(e, tc)
		c.maybeSnapshotLocked(e)
		return true, nil
	}
	return false, nil
}

// verifyShape runs the stateless checks, optionally skipping the PoW
// predicate for simulated chains.
func (c *Chain) verifyShape(blk *types.Block) error {
	if c.cfg.SkipPoWCheck {
		if types.ComputeTxRoot(blk.Txs) != blk.Header.TxRoot {
			return types.ErrBlockBadTxRoot
		}
		for i, tx := range blk.Txs {
			if err := tx.ValidateBasic(); err != nil {
				return fmt.Errorf("chain: block tx %d: %w", i, err)
			}
		}
		return nil
	}
	return blk.VerifyShape()
}

// setHead switches the canonical chain to the branch ending at e,
// rebuilds the transaction and detection indexes across the changed
// suffix, and publishes a fresh ReadView.
//
// Because published views alias canon, sraIndex and the trie roots, the
// rebuild never mutates shared structure: the index tries are written
// under one fresh critbit generation per head switch, so they rewrite
// only nodes made since the last publishView (the freeze point) and
// path-copy the rest, and a reorg copies the kept prefix of
// canon/sraIndex into fresh arrays before appending — truncating in place
// and re-appending would overwrite the abandoned suffix older views still
// read.
func (c *Chain) setHead(e *entry, tc telemetry.TraceContext) {
	gen := critbit.NewGen()
	// Build the new canonical path back to a block already canonical.
	var path []*entry
	cursor := e
	for {
		n := cursor.block.Header.Number
		if n < uint64(len(c.canon)) && c.canon[n] == cursor {
			break
		}
		path = append(path, cursor)
		cursor = cursor.parent
	}
	forkPoint := cursor.block.Header.Number
	if forkPoint+1 < uint64(len(c.canon)) {
		mReorgs.Inc()

		// Reorg: unindex the abandoned suffix. Detection records per SRA
		// and the SRA index are in ascending block order, so abandoned
		// entries form a tail; record-slice truncation reallocates (full
		// slice expression) instead of retreating len over a shared array.
		dropped := make(map[types.Hash]struct{})
		for i := forkPoint + 1; i < uint64(len(c.canon)); i++ {
			for _, tx := range c.canon[i].block.Txs {
				c.txTrie = critbit.Delete(c.txTrie, tx.Hash(), gen)
				if sraID, ok := reportSRAID(tx); ok {
					dropped[sraID] = struct{}{}
				}
			}
		}
		for sraID := range dropped {
			recs, _ := critbit.Get(c.detTrie, sraID)
			keep := len(recs)
			for keep > 0 && recs[keep-1].BlockNumber > forkPoint {
				keep--
			}
			if keep == 0 {
				c.detTrie = critbit.Delete(c.detTrie, sraID, gen)
			} else {
				c.detTrie = critbit.Set(c.detTrie, sraID, recs[:keep:keep], gen)
			}
		}

		keepSRA := len(c.sraIndex)
		for keepSRA > 0 && c.sraIndex[keepSRA-1].BlockNumber > forkPoint {
			keepSRA--
		}
		c.sraIndex = append([]SRARef(nil), c.sraIndex[:keepSRA]...)
		c.canon = append([]*entry(nil), c.canon[:forkPoint+1]...)
	}

	// Append the new suffix (path is head→forkPoint+1, reverse it).
	// Lifecycle events for the newly-canonical blocks are published as
	// the indexes are rebuilt: after a reorg the re-canonicalized suffix
	// re-emits, which SSE consumers must treat as the authoritative
	// replay, exactly like re-reading the chain. The bus stamps event
	// timestamps itself, so no wall-clock read happens under c.mu.
	for i := len(path) - 1; i >= 0; i-- {
		en := path[i]
		c.canon = append(c.canon, en)
		if n := en.block.Header.Number; n >= postHorizon {
			dropPost(c.canon[n-postHorizon])
		}
		for j, tx := range en.block.Txs {
			c.txTrie = critbit.Set(c.txTrie, tx.Hash(), txLoc{
				blockID: en.block.ID(),
				number:  en.block.Header.Number,
				txIdx:   j,
				receipt: en.receipts[j],
			}, gen)
			if sraID, ok := reportSRAID(tx); ok {
				recs, _ := critbit.Get(c.detTrie, sraID)
				// Full-capacity expression: the append below must land in
				// a fresh array, never in spare capacity a view aliases.
				recs = append(recs[:len(recs):len(recs)], DetectionRecord{
					BlockNumber: en.block.Header.Number,
					Tx:          tx,
					Receipt:     en.receipts[j],
				})
				c.detTrie = critbit.Set(c.detTrie, sraID, recs, gen)
			}
			if tx.Kind == types.TxSRA && en.receipts[j].Success {
				if sra, err := tx.SRA(); err == nil {
					c.sraIndex = append(c.sraIndex, SRARef{
						ID:          sra.ID,
						BlockNumber: en.block.Header.Number,
					})
					telemetry.PublishEvent("sra", tc, map[string]string{
						"id":    sra.ID.String(),
						"block": strconv.FormatUint(en.block.Header.Number, 10),
					})
				}
			}
			if tx.Kind == types.TxDetailedReport && en.receipts[j].Success {
				if r, err := tx.DetailedReport(); err == nil {
					telemetry.PublishEvent("verdict", tc, map[string]string{
						"sra":   r.SRAID.String(),
						"block": strconv.FormatUint(en.block.Header.Number, 10),
					})
				}
			}
		}
	}
	c.head = e
	mHeadHeight.Set(int64(e.block.Header.Number))
	c.publishView()
	telemetry.PublishEvent("head", tc, map[string]string{
		"number": strconv.FormatUint(e.block.Header.Number, 10),
		"id":     e.block.ID().String(),
		"txs":    strconv.Itoa(len(e.block.Txs)),
	})
}

// reportSRAID extracts the SRA a detection-report transaction refers to.
func reportSRAID(tx *types.Transaction) (types.Hash, bool) {
	switch tx.Kind {
	case types.TxInitialReport:
		if r, err := tx.InitialReport(); err == nil {
			return r.SRAID, true
		}
	case types.TxDetailedReport:
		if r, err := tx.DetailedReport(); err == nil {
			return r.SRAID, true
		}
	}
	return types.Hash{}, false
}

// ReceiptOf returns the canonical receipt of a transaction.
func (c *Chain) ReceiptOf(txHash types.Hash) (*Receipt, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	loc, ok := critbit.Get(c.txTrie, txHash)
	if !ok {
		return nil, fmt.Errorf("%w: tx %s not on canonical chain", ErrUnknownBlock, txHash.Short())
	}
	return loc.receipt, nil
}

// Confirmations returns how many blocks deep a transaction is (1 = in the
// head block), or 0 if it is not canonical.
func (c *Chain) Confirmations(txHash types.Hash) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	loc, ok := critbit.Get(c.txTrie, txHash)
	if !ok {
		return 0
	}
	return c.head.block.Header.Number - loc.number + 1
}

// CanonicalBlocks returns the canonical chain (including genesis).
func (c *Chain) CanonicalBlocks() []*types.Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]*types.Block, len(c.canon))
	for i, e := range c.canon {
		out[i] = e.body()
	}
	return out
}

// SRARef locates a successful SRA announcement on the canonical chain.
type SRARef struct {
	ID          types.Hash
	BlockNumber uint64
}

// DetectionRecord pairs a report transaction with its canonical receipt —
// the consumer-facing "authoritative reference" (paper §IV-A).
type DetectionRecord struct {
	BlockNumber uint64
	Tx          *types.Transaction
	Receipt     *Receipt
}

// DetectionResults returns every detection report recorded for the given
// SRA on the canonical chain, in chain order. The records come from the
// incrementally maintained index — a map lookup plus a defensive copy —
// rather than a scan and re-decode of the whole chain.
func (c *Chain) DetectionResults(sraID types.Hash) []DetectionRecord {
	c.mu.RLock()
	defer c.mu.RUnlock()
	recs, _ := critbit.Get(c.detTrie, sraID)
	if len(recs) == 0 {
		return nil
	}
	return append([]DetectionRecord(nil), recs...)
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
		return nil, fmt.Errorf("%w: %s", ErrUnknownParent, parentID.Short())
	}
	parentState, err := c.stateOfLocked(parent)
	if err != nil {
		c.mu.Unlock()
		return nil, err
	}
	st := parentState.Copy()
	number := parent.block.Header.Number + 1
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
