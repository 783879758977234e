package chain

import (
	"fmt"

	"github.com/smartcrowd/smartcrowd/internal/critbit"
	"github.com/smartcrowd/smartcrowd/internal/state"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// ReadView is an immutable, head-pinned snapshot of every consumer-facing
// read surface of the chain: head summary, canonical block index,
// transaction/receipt lookups, detection records, the SRA listing and the
// head post-state. The chain publishes a fresh view through an atomic
// pointer at the end of every head switch (commit or reorg), so readers
// never touch the chain mutex: CurrentView is one atomic load, and every
// method on the returned view reads only data frozen at publication.
//
// Immutability contract (see DESIGN.md §10):
//
//   - canon and sraIndex are slice headers over backing arrays the writer
//     never overwrites below the published length — setHead copies both
//     arrays out before truncating on a reorg, and plain head extensions
//     only ever append past the published length;
//   - txIndex and detIndex are roots of persistent crit-bit tries
//     (package critbit) whose nodes publishView freezes: setHead writes
//     them under a fresh generation per head switch, so it rewrites in
//     place only nodes it made since the last publication and path-copies
//     every published one;
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
	txIndex  *critbit.Node[txLoc]
	detIndex *critbit.Node[[]DetectionRecord]
	sraIndex []SRARef
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
		head:     c.head.block,
		headID:   c.head.block.ID(),
		totalDif: c.head.totalDif,
		canon:    c.canon,
		txIndex:  c.txTrie,
		detIndex: c.detTrie,
		sraIndex: c.sraIndex,
		state:    c.head.post,
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

// BlockByNumber returns the canonical block at a height in this view.
func (v *ReadView) BlockByNumber(n uint64) (*types.Block, error) {
	if n >= uint64(len(v.canon)) {
		return nil, fmt.Errorf("%w: height %d beyond head %d", ErrUnknownBlock, n, len(v.canon)-1)
	}
	return v.canon[n].body(), nil
}

// BlocksRange returns the canonical blocks from..to (inclusive), all
// resolved from this single snapshot — a reorg concurrent with the call
// cannot mix blocks from two forks into the result. Ranges past the head
// are truncated.
func (v *ReadView) BlocksRange(from, to uint64) []*types.Block {
	if from >= uint64(len(v.canon)) || to < from {
		return nil
	}
	if to >= uint64(len(v.canon)) {
		to = uint64(len(v.canon)) - 1
	}
	out := make([]*types.Block, 0, to-from+1)
	for n := from; n <= to; n++ {
		out = append(out, v.canon[n].body())
	}
	return out
}

// ReceiptOf returns the receipt of a transaction canonical in this view.
func (v *ReadView) ReceiptOf(txHash types.Hash) (*Receipt, error) {
	loc, ok := critbit.Get(v.txIndex, txHash)
	if !ok {
		return nil, fmt.Errorf("%w: tx %s not on canonical chain", ErrUnknownBlock, txHash.Short())
	}
	return loc.receipt, nil
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
	return loc.blockID, loc.number, loc.txIdx, true
}

// SRACount returns how many SRA announcements this view's chain holds.
func (v *ReadView) SRACount() int { return len(v.sraIndex) }

// SRAAt returns the i-th canonical SRA announcement, if it exists. The
// cursor pagination layer uses it to verify (and if necessary re-anchor)
// a resume position in O(1) instead of re-listing a page.
func (v *ReadView) SRAAt(i int) (SRARef, bool) {
	if i < 0 || i >= len(v.sraIndex) {
		return SRARef{}, false
	}
	return v.sraIndex[i], true
}

// SRAList returns a page of canonical SRA announcements in chain order.
// The page is a capped sub-slice of the immutable snapshot index — no
// copy, and appends by the caller cannot reach the shared array.
func (v *ReadView) SRAList(offset, limit int) []SRARef {
	if offset < 0 || offset >= len(v.sraIndex) || limit <= 0 {
		return nil
	}
	end := offset + limit
	if end > len(v.sraIndex) {
		end = len(v.sraIndex)
	}
	return v.sraIndex[offset:end:end]
}

// DetectionResults returns every detection report recorded for the given
// SRA in this view, in chain order. The slice is shared with the
// snapshot index; callers must not mutate it (appends are safe — the
// writer builds record slices with full-capacity expressions, so an
// append always reallocates).
func (v *ReadView) DetectionResults(sraID types.Hash) []DetectionRecord {
	recs, _ := critbit.Get(v.detIndex, sraID)
	return recs
}

// State returns the view head's committed post-state. It is FROZEN:
// callers may invoke the read-only methods (Balance, Nonce, GetStorage,
// Code, Root, Serialize, Copy) concurrently with anything, but must never
// call a mutator — this is the same object the chain builds the next
// block's state from.
func (v *ReadView) State() *state.DB { return v.state }

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
