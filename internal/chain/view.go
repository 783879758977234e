package chain

import (
	"fmt"

	"github.com/smartcrowd/smartcrowd/internal/critbit"
	"github.com/smartcrowd/smartcrowd/internal/state"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// ReadView is an immutable, head-pinned snapshot of every consumer-facing
// read surface of the chain: head summary, canonical block index,
// transaction/receipt lookups and the head post-state, which holds the
// consumer's reference (contract.GetSRA, SRACount, SRAAt). The chain publishes a fresh view through an atomic
// pointer at the end of every head switch (commit or reorg), so readers
// never touch the chain mutex: CurrentView is one atomic load, and every
// method on the returned view reads only data frozen at publication.
//
// Immutability contract (see DESIGN.md §10):
//
//   - canon is a slice header over a backing array the writer never
//     overwrites below the published length — setHead copies it out
//     before truncating on a reorg, and plain head extensions only ever
//     append past the published length;
//   - txIndex is the root of a persistent crit-bit trie (package critbit)
//     whose nodes publishView freezes: setHead writes it under a fresh
//     generation per head switch, so it rewrites in place only nodes it
//     made since the last publication and path-copies every published
//     one. It holds a transaction's (number, position) only; the block id
//     and the receipt are read from canon[number] of the same view, which
//     setHead published with the index, and an indexed entry's ex, its
//     receipts included, was set before the entry was shared and is never
//     reassigned (entry.ex), so reading them needs no lock;
//   - canon's entries are the chain's own: a block's entry may let go of
//     its decoded block while a view holds it (entry.release, once the
//     block is postHorizon blocks below the head), but it clears one
//     atomic block pointer after writing the block's bytes, and a reader
//     that finds it clear installs a header-only block read from them, so
//     a reader sees the block whole either way. A view therefore holds
//     the blocks below the window as their bytes, and decodes them only
//     where a body is asked for (BlockByNumber, AppendBlocksRange);
//   - logged is the chain's, set once before any view held its entries:
//     the blocks a reopen installed below its snapshot head are held as
//     headers, and their bytes are read from the backend's log where a
//     body, a summary or a record's bytes are asked for — reads that can
//     fail (a closed store, bytes changed on disk), so those readers
//     return an error or stop short instead;
//   - state is the head block's committed post-state: a root of the same
//     kind of trie, summed and frozen before it was committed (the chain
//     compares its Root() with the header first), so no node reachable
//     from it is ever written again — later blocks execute on Copy()s
//     that path-copy what they touch. Callers must treat it as
//     read-only — call only accessor methods, never mutators.
//
// A view held across head switches keeps serving its own fork
// consistently; it simply goes stale, it never tears.
type ReadView struct {
	head     *types.Block
	headID   types.Hash
	totalDif uint64
	canon    []*entry
	txIndex  *critbit.Node[txLoc, struct{}]
	horizon  uint64
	logged   logRecords
	state    *state.DB
}

// CurrentView returns the chain's latest published read snapshot. It is
// one atomic pointer load — no lock, no allocation — and the returned
// view is safe for any number of concurrent readers.
func (c *Chain) CurrentView() *ReadView {
	return c.view.Load()
}

// publishView snapshots the canonical read surface and swaps it into the
// atomic pointer. Callers hold the write lock and have already committed
// the head they are publishing.
func (c *Chain) publishView() {
	c.view.Store(&ReadView{
		head:     c.head.block(),
		headID:   c.head.block().ID(),
		totalDif: c.head.totalDif,
		canon:    c.canon,
		txIndex:  c.txTrie,
		horizon:  c.horizon,
		logged:   c.logged,
		state:    c.head.post(),
	})
	mViewPublished.Inc()
}

// Head returns the view's head block.
func (v *ReadView) Head() *types.Block { return v.head }

// HeadID returns the view's head block id (the cache generation key the
// RPC layer invalidates head-keyed responses on).
func (v *ReadView) HeadID() types.Hash { return v.headID }

// HeadNumber returns the view's canonical height.
func (v *ReadView) HeadNumber() uint64 { return v.head.Header.Number }

// TotalDifficulty returns the view head's cumulative difficulty.
func (v *ReadView) TotalDifficulty() uint64 { return v.totalDif }

// Horizon returns the height of the snapshot the chain was installed
// from, 0 for a chain grown from genesis: receipts, proofs and
// confirmations are served for transactions above it only.
func (v *ReadView) Horizon() uint64 { return v.horizon }

// entryAt returns the canonical entry at a height in this view.
func (v *ReadView) entryAt(n uint64) (*entry, error) {
	if n >= uint64(len(v.canon)) {
		return nil, fmt.Errorf("%w: height %d beyond head %d", ErrUnknownBlock, n, len(v.canon)-1)
	}
	return v.canon[n], nil
}

// BlockByNumber returns the canonical block at a height in this view,
// with its transactions: a block below the window is decoded from its
// bytes on every call, read from the log first when a reopen left them
// there.
func (v *ReadView) BlockByNumber(n uint64) (*types.Block, error) {
	e, err := v.entryAt(n)
	if err != nil {
		return nil, err
	}
	return v.logged.body(e)
}

// HeaderByNumber returns the canonical block at a height in this view for
// its header and id, never decoding it: a block below the window comes
// back without its transactions.
func (v *ReadView) HeaderByNumber(n uint64) (*types.Block, error) {
	e, err := v.entryAt(n)
	if err != nil {
		return nil, err
	}
	return e.block(), nil
}

// AppendBlocksRange appends the canonical blocks from..to (inclusive) to
// dst, with their transactions (decoded, below the window), all resolved
// from this single snapshot — a reorg concurrent with the call cannot mix
// blocks from two forks into the result. Ranges past the head are
// truncated, and so is a range at a block whose bytes cannot be read
// from the log.
func (v *ReadView) AppendBlocksRange(dst []*types.Block, from, to uint64) []*types.Block {
	for _, e := range v.entries(from, to) {
		blk, err := v.logged.body(e)
		if err != nil {
			break
		}
		dst = append(dst, blk)
	}
	return dst
}

// BlockSummary is a canonical block as a /v1 block summary reads it: the
// header and id from Block, whose Txs are not read (a block below the
// window has none), and the transactions from Txs.
type BlockSummary struct {
	Block *types.Block
	Txs   *types.TxSummary
}

// AppendSummaries appends the summaries of the canonical blocks from..to
// (inclusive) to dst, resolved from this single snapshot as
// AppendBlocksRange resolves blocks; nothing is decoded. A block's
// summary is computed on first use and memoised, so a warm call
// allocates nothing when dst has room for the range, and a caller can
// keep a bounded page off the heap. A first use reads the bytes of a
// block a reopen left in the log, and its failure is the error returned.
func (v *ReadView) AppendSummaries(dst []BlockSummary, from, to uint64) ([]BlockSummary, error) {
	for _, e := range v.entries(from, to) {
		s, err := v.logged.summary(e)
		if err != nil {
			return dst, err
		}
		dst = append(dst, s)
	}
	return dst, nil
}

// entries returns the canonical entries from..to (inclusive), truncated
// past the head; nil when inverted or out of range.
func (v *ReadView) entries(from, to uint64) []*entry {
	if from >= uint64(len(v.canon)) || to < from {
		return nil
	}
	return v.canon[from : min(to, uint64(len(v.canon))-1)+1]
}

// RecordsRange returns the canonical blocks from..to (inclusive) of this
// view as records. Ranges past the head are truncated; an inverted or
// out-of-range request yields nil. It is built for a writer: a block held
// as its bytes (below the window, or installed by a snap-join) comes back
// as those bytes beside its header-only block, not decoded, and a block a
// reopen left in the log as where they sit there (types.StoredRecord),
// not read: serving a peer's range sync costs a copy of each record, into
// the response (types.BlockRecord.Append), and reads nothing here.
func (v *ReadView) RecordsRange(from, to uint64) []types.BlockRecord {
	es := v.entries(from, to)
	if es == nil {
		return nil
	}
	out := make([]types.BlockRecord, len(es))
	for i, e := range es {
		out[i] = v.logged.record(e)
	}
	return out
}

// ReceiptOf returns the receipt of a transaction canonical in this view.
// Below the view's horizon it answers ErrBelowHorizon.
func (v *ReadView) ReceiptOf(txHash types.Hash) (*Receipt, error) {
	loc, err := lookupTx(v.txIndex, v.horizon, txHash)
	if err != nil {
		return nil, err
	}
	// canon and the index are published together, so loc.number is within
	// canon and names the entry that was indexed.
	return v.canon[loc.number].receipts()[loc.txIdx], nil
}

// Confirmations returns how many blocks deep a transaction is in this
// view (1 = in the head block), or 0 if it is not canonical.
func (v *ReadView) Confirmations(txHash types.Hash) uint64 {
	loc, ok := critbit.Get(v.txIndex, txHash)
	if !ok {
		return 0
	}
	return v.head.Header.Number - loc.number + 1
}

// TxLocation resolves a canonical transaction to its block id, height
// and in-block index — the inputs a Merkle inclusion proof needs.
func (v *ReadView) TxLocation(txHash types.Hash) (blockID types.Hash, number uint64, txIdx int, ok bool) {
	loc, found := critbit.Get(v.txIndex, txHash)
	if !found {
		return types.Hash{}, 0, 0, false
	}
	return v.canon[loc.number].block().ID(), loc.number, loc.txIdx, true
}

// State returns the view head's committed post-state. It is FROZEN:
// callers may invoke the read-only methods (Balance, Nonce, GetStorage,
// Code, Root, Serialize, Copy) concurrently with anything, but must never
// call a mutator — this is the same object the chain builds the next
// block's state from.
func (v *ReadView) State() *state.DB { return v.state }

// Genesis returns the genesis block's state, which holds the chain's
// allocation and nothing else. It is FROZEN, like State.
func (v *ReadView) Genesis() *state.DB { return v.canon[0].post() }

// FinalizedDepth reports how many blocks below the view head a height
// sits (0 = at or above head). The RPC cache uses it against the
// finality depth K when deciding whether a response may be declared
// immutable to HTTP clients.
func (v *ReadView) FinalizedDepth(number uint64) uint64 {
	if number >= v.head.Header.Number {
		return 0
	}
	return v.head.Header.Number - number
}
