package chain

import (
	"fmt"

	"github.com/smartcrowd/smartcrowd/internal/critbit"
	"github.com/smartcrowd/smartcrowd/internal/state"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// The locked oracle: every read below answers from the chain's own
// indexes under c.mu, never from a published ReadView. Production code
// reads through ReadView only; these exist so the tests can hold
// "ReadView equals the locked chain" and "the detection index equals a
// scan" — they live in a _test.go file so nothing else can come to
// depend on a second read path.

// TotalDifficulty returns the head's cumulative difficulty.
func (c *Chain) TotalDifficulty() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.head.totalDif
}

// BlockByNumber returns the canonical block at a height.
func (c *Chain) BlockByNumber(n uint64) (*types.Block, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if n >= uint64(len(c.canon)) {
		return nil, fmt.Errorf("%w: height %d beyond head %d", ErrUnknownBlock, n, len(c.canon)-1)
	}
	return c.canon[n].block, nil
}

// StateAt returns a copy of the post-state of the given block, rebuilding
// it by re-execution when the block sits below an adopted snapshot.
func (c *Chain) StateAt(id types.Hash) (*state.DB, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownBlock, id.Short())
	}
	st, err := c.stateOfLocked(e)
	if err != nil {
		return nil, err
	}
	return st.Copy(), nil
}

// TxLocation resolves a canonical transaction to its block id, height and
// in-block index — the inputs a Merkle inclusion proof needs.
func (c *Chain) TxLocation(txHash types.Hash) (blockID types.Hash, number uint64, txIdx int, ok bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	loc, found := critbit.Get(c.txTrie, txHash)
	if !found {
		return types.Hash{}, 0, 0, false
	}
	return loc.blockID, loc.number, loc.txIdx, true
}

// Confirmed reports whether a transaction has reached the configured
// confirmation depth (the paper's 6-block rule).
func (c *Chain) Confirmed(txHash types.Hash) bool {
	return c.Confirmations(txHash) >= c.cfg.Confirmations
}

// SRACount returns how many SRA announcements the canonical chain holds.
func (c *Chain) SRACount() int {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return len(c.sraIndex)
}

// SRAList returns a page of canonical SRA announcements in chain order,
// starting at offset. It is backed by the incrementally maintained index,
// so pagination costs O(limit) regardless of chain length. A negative or
// past-the-end offset yields an empty page; limit <= 0 yields none.
func (c *Chain) SRAList(offset, limit int) []SRARef {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if offset < 0 || offset >= len(c.sraIndex) || limit <= 0 {
		return nil
	}
	end := offset + limit
	if end > len(c.sraIndex) {
		end = len(c.sraIndex)
	}
	return append([]SRARef(nil), c.sraIndex[offset:end]...)
}

// SRAAt returns the i-th canonical SRA announcement, if it exists.
func (c *Chain) SRAAt(i int) (SRARef, bool) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if i < 0 || i >= len(c.sraIndex) {
		return SRARef{}, false
	}
	return c.sraIndex[i], true
}

// detectionResultsScan is the pre-index linear scan over the canonical
// chain. It is kept as the reference oracle for the index: consistency
// tests and benchmarks in this package compare DetectionResults against it.
func (c *Chain) detectionResultsScan(sraID types.Hash) []DetectionRecord {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []DetectionRecord
	for _, e := range c.canon {
		for j, tx := range e.block.Txs {
			if id, ok := reportSRAID(tx); ok && id == sraID {
				out = append(out, DetectionRecord{
					BlockNumber: e.block.Header.Number,
					Tx:          tx,
					Receipt:     e.receipts[j],
				})
			}
		}
	}
	return out
}
