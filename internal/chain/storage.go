// Durable chain storage: the Storage interface the chain persists through,
// plus the open/replay path that rebuilds an equivalent in-memory chain
// from what a backend hands back, and snapshot adoption (the shared core
// of restart-from-snapshot and wire snap-sync).
//
// The chain remains memory-first: a nil Config.Storage (the default, used
// by tests and the simulator) changes nothing. With a backend attached,
// every imported block is appended to the backend *before* the in-memory
// commit, under the same write lock — the backend's write-ahead record of
// (block, resulting head) is therefore always at or one step ahead of the
// memory state, never behind, and a crash between the two replays the
// block on reopen instead of losing it.
//
// Recovery contract (what Load must guarantee, what replay assumes):
//
//   - Load returns only committed blocks, in their original insertion
//     order, each of which was valid when first imported (parents always
//     precede children). Each comes back as a types.BlockRecord: a
//     header-only block beside its record bytes or where the backend
//     keeps them (types.StoredRecord), bytes types.DecodeHeader has
//     accepted — so types.DecodeBlock accepts them too.
//   - HeadID/HeadNumber name the last durably committed fork-choice head;
//     the canonical chain is recovered by walking parent links from it.
//   - Snapshot, when present, is advisory: replay validates it against
//     the recovered canonical chain (right block at the right height) and
//     the restored state against the commitment-trie root in that block's
//     header before trusting it, falling back to full re-execution.
//   - Blocks below a restored snapshot stay where Load left their bytes:
//     in the backend's log (Chain.logged), read each time something asks
//     for a body, a summary or the bytes, or — from a backend that hands
//     out bytes — in memory, as blocks below the window are held
//     (entry.release). Replay reads and decodes the snapshot block, the
//     tail above it and side blocks, which keep the bytes read for when
//     they fall below the window.
package chain

import (
	"errors"
	"fmt"
	"maps"
	"slices"
	"strconv"

	"github.com/smartcrowd/smartcrowd/internal/state"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// Storage is the persistence backend behind a durable chain. Implementations
// must be safe for concurrent use; the chain calls AppendBlocks under its
// write lock (serialized) but SaveSnapshot from background goroutines.
type Storage interface {
	// Load opens (creating if empty) the backend for a chain whose genesis
	// block has the given id, returning everything previously committed.
	// Opening a backend that belongs to a different genesis must fail.
	Load(genesis types.Hash) (*StoredChain, error)
	// AppendBlocks durably commits blocks (in order) together with the
	// fork-choice head that holds after their import. It must not return
	// until both survive a crash. Every import commits through it.
	AppendBlocks(blocks []*types.Block, headID types.Hash, headNumber uint64) error
	// AppendRecords is AppendBlocks for records: a record with Raw set is
	// committed as those bytes, so snapshot adoption commits its prefix
	// without decoding it. AppendBlocks stays beside it because the frozen
	// benchmark's trace wrapper (benchmark/trace.go) overrides it.
	AppendRecords(recs []types.BlockRecord, headID types.Hash, headNumber uint64) error
	// SaveSnapshot durably replaces the backend's state snapshot.
	SaveSnapshot(snap StoredSnapshot) error
	// Stats reports backend sizes and state for observability surfaces.
	Stats() StorageStats
	// Close flushes and releases the backend.
	Close() error
}

// StoredChain is what a Storage backend recovers on open.
type StoredChain struct {
	// Blocks are all committed blocks in insertion order (excluding
	// genesis, which the chain derives from its config).
	Blocks []types.BlockRecord
	// HeadID/HeadNumber are the last committed fork-choice head; the zero
	// hash with number 0 means the chain never advanced past genesis.
	HeadID     types.Hash
	HeadNumber uint64
	// Snapshot is the most recent state snapshot, nil if none was written
	// or the stored one failed its checksum.
	Snapshot *StoredSnapshot
}

// StoredSnapshot is a serialized state at a canonical block.
type StoredSnapshot struct {
	// Height/BlockID locate the canonical block whose post-state this is.
	Height  uint64
	BlockID types.Hash
	// StateRoot is the commitment-trie root the restored state must hash
	// to (equal to the block header's StateRoot).
	StateRoot types.Hash
	// State is the state.Serialize blob.
	State []byte
}

// StorageStats describes a backend for /v1/node and logs.
type StorageStats struct {
	// Backend names the implementation ("memory", "disk").
	Backend string
	// Dir is the datadir for disk backends, empty otherwise.
	Dir string
	// Blocks is the committed block count: the block records the log's
	// commits hold.
	Blocks uint64
	// LogBytes/SnapshotBytes are on-disk file sizes.
	LogBytes      int64
	SnapshotBytes int64
	// WALBytes is always 0: the head record is a commit record in the
	// block log, and no backend keeps a wal file. It stays declared only
	// because the frozen benchmark/trace.go sums it, like IndexBytes.
	WALBytes int64
	// IndexBytes is always 0: no backend keeps an index file. It stays
	// declared only because the frozen benchmark/trace.go sums it, and
	// goes when the benchmark stops reading it.
	IndexBytes int64
	// SnapshotHeight is the height of the snapshot the next open reads:
	// the newest one saved, durable or not (0 = none).
	SnapshotHeight uint64
	// Recovered reports that the last open truncated a torn or
	// unacknowledged tail — i.e. the backend healed after a crash.
	Recovered bool
}

// Durability and snapshot-adoption errors.
var (
	ErrClosed           = errors.New("chain: chain is closed")
	ErrChainNotEmpty    = errors.New("chain: snapshot adoption requires a chain still at genesis")
	ErrSnapshotChain    = errors.New("chain: snapshot block chain is not linked")
	ErrSnapshotState    = errors.New("chain: snapshot state does not hash to the header commitment root")
	ErrStorageCorrupt   = errors.New("chain: storage replay produced an inconsistent chain")
	ErrSnapshotRejected = errors.New("chain: stored snapshot rejected")
	// ErrSnapshotNotDurable reports a saved snapshot, the one the next open
	// reads, whose directory fsync failed: a power cut may undo the save.
	ErrSnapshotNotDurable = errors.New("chain: snapshot saved, not yet durable")
)

// chainLog is the chain's structured logger.
var chainLog = telemetry.Log("chain")

// Durable-storage metrics.
var (
	mStoreAppendNs       = telemetry.GetHistogram("smartcrowd_chain_store_append_ns")
	mSnapshotsWritten    = telemetry.GetCounter("smartcrowd_chain_snapshots_written_total")
	mSnapshotsFailed     = telemetry.GetCounter("smartcrowd_chain_snapshots_failed_total")
	mSnapshotsNotDurable = telemetry.GetCounter("smartcrowd_chain_snapshots_not_durable_total")
	mReplayBlocks        = telemetry.GetCounter("smartcrowd_chain_replay_blocks_total")
	mSnapshotRestores    = telemetry.GetCounter("smartcrowd_chain_snapshot_restores_total")
	mSnapshotRejected    = telemetry.GetCounter("smartcrowd_chain_snapshot_rejected_total")
	mSnapshotAdopted     = telemetry.GetCounter("smartcrowd_chain_snapshot_adopted_total")
)

func init() {
	telemetry.SetHelp("smartcrowd_chain_store_append_ns", "durable AppendBlocks latency under the chain write lock")
	telemetry.SetHelp("smartcrowd_chain_snapshots_written_total", "state snapshots durably written by the chain")
	telemetry.SetHelp("smartcrowd_chain_snapshots_failed_total", "state snapshot writes that failed")
	telemetry.SetHelp("smartcrowd_chain_snapshots_not_durable_total", "state snapshots saved in place whose directory fsync failed")
	telemetry.SetHelp("smartcrowd_chain_replay_blocks_total", "blocks re-imported from durable storage on open")
	telemetry.SetHelp("smartcrowd_chain_snapshot_restores_total", "chain opens that restored state from a durable snapshot")
	telemetry.SetHelp("smartcrowd_chain_snapshot_rejected_total", "stored or streamed snapshots rejected by validation")
	telemetry.SetHelp("smartcrowd_chain_snapshot_adopted_total", "snapshots adopted (restart restore or wire snap-sync)")
}

// initFromStorage replays the attached backend into the freshly built
// chain. Called once from New, before the chain is shared, with persist
// still false so replayed imports are not re-appended. The fast path
// restores the newest valid snapshot, keeps the blocks below it as
// headers plus where their records sit, and reads, decodes and
// re-executes only the tail;
// full re-execution from genesis is the fallback whenever the snapshot
// fails any check.
func (c *Chain) initFromStorage() error {
	sc, err := c.store.Load(c.genesis.block().ID())
	if err != nil {
		return fmt.Errorf("chain: open storage: %w", err)
	}
	defer func() { c.persist = true }()
	if len(sc.Blocks) == 0 {
		return nil
	}

	// Ids are hashed, not memoised: a block below the snapshot that
	// nothing reads keeps no id memo (types.Block.ID) beside its header.
	byID := make(map[types.Hash]types.BlockRecord, len(sc.Blocks))
	for _, rec := range sc.Blocks {
		byID[rec.Block.Header.ID()] = rec
	}

	// Recover the canonical chain by walking parent links from the
	// committed head down to genesis.
	canonical := make([]types.BlockRecord, sc.HeadNumber+1)
	canonical[0].Block = c.genesis.block()
	cursor := sc.HeadID
	for n := sc.HeadNumber; n >= 1; n-- {
		rec, ok := byID[cursor]
		if !ok || rec.Block.Header.Number != n {
			return fmt.Errorf("%w: canonical walk broke at height %d (%s)", ErrStorageCorrupt, n, cursor.Short())
		}
		canonical[n] = rec
		cursor = rec.Block.Header.ParentID
	}
	if cursor != c.genesis.block().ID() {
		return fmt.Errorf("%w: canonical walk did not reach genesis", ErrStorageCorrupt)
	}

	// Try the snapshot fast path; any validation failure falls back to
	// full replay rather than failing the open.
	restored := uint64(0)
	if snap := sc.Snapshot; snap != nil {
		switch err := c.restoreSnapshotPrefix(snap, canonical); {
		case err == nil:
			restored = snap.Height
			mSnapshotRestores.Inc()
			mSnapshotAdopted.Inc()
		default:
			mSnapshotRejected.Inc()
			chainLog.Warn("stored snapshot rejected, falling back to full replay",
				"height", strconv.FormatUint(snap.Height, 10), "err", err.Error())
		}
	}

	// Re-execute the canonical tail through the batched import pipeline
	// (parallel stage-1 verification), then re-offer non-canonical blocks
	// individually — side forks are best-effort: one whose parent sits
	// below a restored snapshot horizon is rebuilt from genesis by
	// stateOfLocked, and one that no longer imports is dropped.
	tail := make([]types.BlockRecord, 0, sc.HeadNumber-restored)
	for _, rec := range canonical[restored+1:] {
		rec, err := decodeRecord(rec)
		if err != nil {
			return fmt.Errorf("%w: canonical replay: %v", ErrStorageCorrupt, err)
		}
		tail = append(tail, rec)
	}
	if len(tail) > 0 {
		if _, err := c.InsertChainTraced(tail, telemetry.TraceContext{}); err != nil {
			return fmt.Errorf("%w: canonical replay: %v", ErrStorageCorrupt, err)
		}
		mReplayBlocks.Add(uint64(len(tail)))
	}
	for _, rec := range sc.Blocks {
		if n := rec.Block.Header.Number; n <= sc.HeadNumber && canonical[n].Block == rec.Block {
			continue
		}
		rec, err := decodeRecord(rec)
		if err != nil {
			return fmt.Errorf("%w: side block: %v", ErrStorageCorrupt, err)
		}
		if _, err := c.InsertBlockTraced(rec, telemetry.TraceContext{}); err == nil {
			mReplayBlocks.Inc()
		}
	}

	if got := c.Head().ID(); got != sc.HeadID {
		return fmt.Errorf("%w: replay head %s, committed head %s", ErrStorageCorrupt, got.Short(), sc.HeadID.Short())
	}
	return nil
}

// decodeRecord reads a stored record's bytes, or takes the ones it
// carries, and decodes the block: the record a replay imports.
func decodeRecord(rec types.BlockRecord) (types.BlockRecord, error) {
	raw := rec.Raw
	if raw == nil {
		var err error
		if raw, err = rec.Append(nil); err != nil {
			return types.BlockRecord{}, err
		}
	}
	blk, err := types.DecodeBlock(raw)
	return types.BlockRecord{Block: blk, Raw: raw}, err
}

// restoreSnapshotPrefix validates a stored snapshot against the recovered
// canonical chain — header-only blocks with their records — and, when
// every check passes, seeds the chain with the canonical prefix up to the
// snapshot height without re-execution. The restored state must hash to
// the commitment-trie root recorded in the snapshot block's header;
// nothing about the snapshot is taken on trust. The snapshot block is
// decoded, so its record is read here; the blocks below it are held as
// their headers, their bytes read from their records when asked for
// (Chain.logged).
func (c *Chain) restoreSnapshotPrefix(snap *StoredSnapshot, canonical []types.BlockRecord) error {
	if snap.Height == 0 || snap.Height >= uint64(len(canonical)) {
		return fmt.Errorf("%w: height %d outside canonical range", ErrSnapshotRejected, snap.Height)
	}
	at := canonical[snap.Height].Block
	if at.ID() != snap.BlockID {
		return fmt.Errorf("%w: block %s is not canonical at height %d", ErrSnapshotRejected, snap.BlockID.Short(), snap.Height)
	}
	if at.Header.StateRoot != snap.StateRoot {
		return fmt.Errorf("%w: recorded root disagrees with the block header", ErrSnapshotRejected)
	}
	st, err := state.Restore(snap.State)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrSnapshotRejected, err)
	}
	if root := st.Root(); root != at.Header.StateRoot {
		return fmt.Errorf("%w: restored state hashes to %s, header commits to %s",
			ErrSnapshotState, root.Short(), at.Header.StateRoot.Short())
	}
	prefix := canonical[1 : snap.Height+1]
	if head := &prefix[len(prefix)-1]; head.Raw == nil {
		if head.Raw, err = head.Append(nil); err != nil {
			return fmt.Errorf("%w: %v", ErrSnapshotRejected, err)
		}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.validatePrefixLocked(prefix); err != nil {
		return err
	}
	c.logged = prefix[:len(prefix)-1]
	c.installPrefixLocked(prefix, st)
	return nil
}

// validatePrefixLocked checks that a snapshot prefix is adoptable by the
// current chain (still at genesis, parent-linked, headers consistent)
// without mutating anything. It reads headers only, and hashes each
// without memoising its id. Callers hold the write lock.
func (c *Chain) validatePrefixLocked(prefix []types.BlockRecord) error {
	if c.closed {
		return ErrClosed
	}
	if c.head != c.genesis {
		return ErrChainNotEmpty
	}
	if len(prefix) == 0 {
		return fmt.Errorf("%w: empty prefix", ErrSnapshotChain)
	}
	prev, prevID := c.genesis.block(), c.genesis.block().ID()
	for i, rec := range prefix {
		blk := rec.Block
		if blk.Header.ParentID != prevID {
			return fmt.Errorf("%w: block %d (#%d) does not extend %s",
				ErrSnapshotChain, i, blk.Header.Number, prevID.Short())
		}
		if err := c.verifyHeaderLink(&prev.Header, &blk.Header); err != nil {
			return err
		}
		prev, prevID = blk, blk.Header.ID()
	}
	return nil
}

// installPrefixLocked commits a prefix that already passed
// validatePrefixLocked, whose final post-state st has been verified
// against the last block's commitment root, and publishes the new head.
// The prefix is adopted without execution: entries below the head carry
// no post-state or receipts (the archival horizon: receipts, proofs and
// confirmations exist only above the snapshot height, since rebuilding
// them would require exactly the re-execution the snapshot exists to
// avoid; the reference is in the state and needs none of them). A record
// with Raw set — every record a snap-join installs — is held as its
// header-only block plus those bytes, the shape an entry below the window
// has once its header is read (entry.block); one a reopen installs, as
// its header-only block alone, its bytes left in the backend's log
// (Chain.logged). The head is decoded here from its bytes, which every
// caller has in memory, since head events and /v1 read its transactions,
// and keeps them for when it falls below the window. Callers hold the
// write lock.
func (c *Chain) installPrefixLocked(prefix []types.BlockRecord, st *state.DB) {
	c.canon = slices.Grow(c.canon, len(prefix))
	// The index is sized once for the prefix, not grown an insert at a time.
	entries := make(map[types.Hash]*entry, len(c.entries)+len(prefix))
	maps.Copy(entries, c.entries)
	c.entries = entries
	parent := c.genesis
	for i, rec := range prefix {
		e := &entry{
			raw:      rec.Raw,
			parent:   parent,
			totalDif: parent.totalDif + rec.Block.Header.Difficulty,
		}
		e.blk.Store(rec.Block)
		// validatePrefixLocked held every parent link to its block's id, so
		// each id below the head is its successor's link, not a hash.
		var id types.Hash
		if i+1 < len(prefix) {
			id = prefix[i+1].Block.Header.ParentID
		} else {
			id = rec.Block.ID()
		}
		c.entries[id] = e
		c.canon = append(c.canon, e)
		parent = e
	}
	parent.blk.Store(parent.body())
	parent.ex = &executed{post: st}
	c.head = parent
	c.horizon = parent.block().Header.Number
	mHeadHeight.Set(int64(parent.block().Header.Number))
	c.publishView()
	telemetry.PublishEvent("head", telemetry.TraceContext{}, map[string]string{
		"number": strconv.FormatUint(parent.block().Header.Number, 10),
		"id":     parent.block().ID().String(),
		"txs":    strconv.Itoa(len(parent.block().Txs)),
	})
}

// AdoptSnapshot bootstraps a pristine chain from snap-synced material: the
// canonical blocks 1..H (ascending) as records — header-only blocks beside
// their EncodeBlock bytes — and the serialized post-state of block H. The
// records get the full shape check on their bytes (types.RecordVerifier,
// parallel across CPUs, stopping at the first failure) but no execution;
// instead the restored state is hashed and compared to the commitment-trie
// root in block H's header, which transitively commits to every execution
// effect. The shape check recovers every sender below H (whether a
// snapshot's prefix needs that is for the ROADMAP's "snap-join adopts on
// headers and a root" item to decide). The prefix is installed as a
// reopen installs it (installPrefixLocked): each block below H as its
// header plus its record, as a block below the window is held once read,
// so it pins the range payloads it came in as a reopen pins the log
// buffer. Receipts below H are not materialized (the archival horizon).
//
// The whole point of snap-sync: adoption costs O(snapshot + shape checks)
// instead of O(re-executing the chain).
func (c *Chain) AdoptSnapshot(prefix []types.BlockRecord, stateBlob []byte) error {
	if len(prefix) == 0 {
		return fmt.Errorf("%w: no blocks", ErrSnapshotChain)
	}
	if err := c.verifyRecords(prefix); err != nil {
		mSnapshotRejected.Inc()
		return err
	}

	st, err := state.Restore(stateBlob)
	if err != nil {
		mSnapshotRejected.Inc()
		return fmt.Errorf("%w: %v", ErrSnapshotRejected, err)
	}
	head := prefix[len(prefix)-1].Block
	if root := st.Root(); root != head.Header.StateRoot {
		mSnapshotRejected.Inc()
		return fmt.Errorf("%w: restored state hashes to %s, header commits to %s",
			ErrSnapshotState, root.Short(), head.Header.StateRoot.Short())
	}

	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.validatePrefixLocked(prefix); err != nil {
		mSnapshotRejected.Inc()
		return err
	}
	// Write-ahead, mirroring commitLocked: the backend commits the prefix
	// before memory adopts it, so a persistence failure leaves the chain
	// untouched (still at genesis, free to fall back to replay) instead of
	// a memory head whose prefix never reached disk.
	if c.store != nil && c.persist {
		if err := c.store.AppendRecords(prefix, head.ID(), head.Header.Number); err != nil {
			return fmt.Errorf("chain: persist adopted snapshot blocks: %w", err)
		}
	}
	c.installPrefixLocked(prefix, st)
	mSnapshotAdopted.Inc()
	if c.store != nil && c.persist {
		snap := StoredSnapshot{
			Height:    head.Header.Number,
			BlockID:   head.ID(),
			StateRoot: head.Header.StateRoot,
			State:     stateBlob,
		}
		c.writeSnapshotAsync(func() StoredSnapshot { return snap })
	}
	return nil
}

// verifyRecords shape-checks a snapshot prefix on its bytes, one
// RecordVerifier per worker, and returns the first failure in order.
func (c *Chain) verifyRecords(prefix []types.BlockRecord) error {
	checks := startVerify(len(prefix), func(stop func() bool) func(int) error {
		v := &types.RecordVerifier{SkipPoW: c.cfg.SkipPoWCheck, Stop: stop}
		return func(i int) error {
			h, err := v.Verify(prefix[i].Raw)
			if err == nil && h != prefix[i].Block.Header {
				err = fmt.Errorf("%w: header differs from its record", ErrSnapshotChain)
			}
			return err
		}
	})
	defer checks.halt()
	for i, rec := range prefix {
		if err := checks.wait(i); err != nil {
			return fmt.Errorf("chain: snapshot block %d (#%d): %w", i, rec.Block.Header.Number, err)
		}
	}
	return nil
}

// snapshotOf serializes a committed post-state into a StoredSnapshot of
// its block. Serialize walks the whole state, so this runs with no chain
// lock held: a committed post-state is immutable, and pinning the pair
// (block, post) is all the lock is needed for.
func snapshotOf(blk *types.Block, post *state.DB) StoredSnapshot {
	return StoredSnapshot{
		Height:    blk.Header.Number,
		BlockID:   blk.ID(),
		StateRoot: blk.Header.StateRoot,
		State:     post.Serialize(),
	}
}

// SnapshotNow serializes the post-state of the current head into a
// StoredSnapshot, for snap-sync serving. It pins the head through the
// published view and never touches the chain lock, so a peer asking for a
// snapshot stalls neither imports nor readers.
func (c *Chain) SnapshotNow() StoredSnapshot {
	v := c.CurrentView()
	return snapshotOf(v.head, v.state)
}

// maybeSnapshotLocked writes a periodic durable snapshot when the new head
// lands on a snapshot-interval boundary. Only the (block, post-state) pair
// is pinned under the lock the caller holds; the O(state) serialization
// and the fsync+rename both run on the background goroutine, so imports
// stall on neither.
func (c *Chain) maybeSnapshotLocked(e *entry) {
	interval := c.cfg.SnapshotInterval
	if c.store == nil || !c.persist || interval == 0 {
		return
	}
	n := e.block().Header.Number
	if n == 0 || n%interval != 0 {
		return
	}
	blk, post := e.block(), e.post()
	c.writeSnapshotAsync(func() StoredSnapshot { return snapshotOf(blk, post) })
}

// writeSnapshotAsync produces and durably writes a snapshot on a
// background goroutine. Close waits for in-flight writes.
func (c *Chain) writeSnapshotAsync(produce func() StoredSnapshot) {
	c.snapWG.Add(1)
	go func() {
		defer c.snapWG.Done()
		saveSnapshot(c.store, produce())
	}()
}

// saveSnapshot writes a snapshot and counts the outcome: written, saved
// in place but not yet durable, or failed.
func saveSnapshot(store Storage, snap StoredSnapshot) {
	err := store.SaveSnapshot(snap)
	switch {
	case err == nil:
		mSnapshotsWritten.Inc()
		return
	case errors.Is(err, ErrSnapshotNotDurable):
		mSnapshotsNotDurable.Inc()
	default:
		mSnapshotsFailed.Inc()
	}
	chainLog.Error("snapshot write failed", "height", strconv.FormatUint(snap.Height, 10), "err", err.Error())
}

// Close flushes a final state snapshot, waits for background snapshot
// writes, and closes the storage backend. Further imports fail with
// ErrClosed; published ReadViews remain valid (they are immutable), so
// concurrent RPC readers are undisturbed. Close is idempotent; a chain
// without storage just flips the closed flag.
func (c *Chain) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	store, head := c.store, c.head
	c.mu.Unlock()

	c.snapWG.Wait()
	if store == nil {
		return nil
	}
	if head.block().Header.Number > 0 {
		saveSnapshot(store, snapshotOf(head.block(), head.post()))
	}
	return store.Close()
}

// StorageStats reports the attached backend's state ("memory" when the
// chain has none).
func (c *Chain) StorageStats() StorageStats {
	if c.store == nil {
		return StorageStats{Backend: "memory"}
	}
	return c.store.Stats()
}
