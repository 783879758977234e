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
// "ReadView equals the locked chain" and "the reference in state equals a
// scan of canonical receipts" — they live in a _test.go file so nothing
// else can come to depend on a second read path.

// lockedHead returns the head block.
func (c *Chain) lockedHead() *types.Block {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.head.block()
}

// lockedState returns the head's committed post-state. It is frozen:
// callers only read it.
func (c *Chain) lockedState() *state.DB {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.head.post()
}

// lockedReceipt returns the canonical receipt of a transaction.
func (c *Chain) lockedReceipt(txHash types.Hash) (*Receipt, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	loc, err := lookupTx(c.txTrie, c.horizon, txHash)
	if err != nil {
		return nil, err
	}
	return c.canon[loc.number].receipts()[loc.txIdx], nil
}

// lockedConfirmations returns how many blocks deep a transaction is (1 =
// in the head block), or 0 if it is not canonical above the horizon.
func (c *Chain) lockedConfirmations(txHash types.Hash) uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	loc, ok := critbit.Get(c.txTrie, txHash)
	if !ok {
		return 0
	}
	return c.head.block().Header.Number - loc.number + 1
}

// lockedRecords returns the canonical blocks from..to (inclusive, to
// clamped to the head) as records: a block held as its bytes comes back
// as those bytes beside its header-only block, and one a reopen left in
// the log as where they sit there.
func (c *Chain) lockedRecords(from, to uint64) []types.BlockRecord {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []types.BlockRecord
	for n := from; n <= to && n < uint64(len(c.canon)); n++ {
		out = append(out, c.logged.record(c.canon[n]))
	}
	return out
}

// TotalDifficulty returns the head's cumulative difficulty.
func (c *Chain) TotalDifficulty() uint64 {
	c.mu.RLock()
	defer c.mu.RUnlock()
	return c.head.totalDif
}

// BlockByNumber returns the canonical block at a height, with its
// transactions.
func (c *Chain) BlockByNumber(n uint64) (*types.Block, error) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	if n >= uint64(len(c.canon)) {
		return nil, fmt.Errorf("%w: height %d beyond head %d", ErrUnknownBlock, n, len(c.canon)-1)
	}
	return c.logged.body(c.canon[n])
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
	return c.canon[loc.number].block().ID(), loc.number, loc.txIdx, true
}

// Confirmed reports whether a transaction has reached the
// confirmation depth (the paper's 6-block rule).
func (c *Chain) Confirmed(txHash types.Hash) bool {
	return c.lockedConfirmations(txHash) >= Confirmations
}

// sraListing reads the contract's SRA listing in the head state.
func (c *Chain) sraListing() []types.Hash {
	st, sc := c.lockedState(), c.cfg.Contract
	ids := make([]types.Hash, sc.SRACount(st))
	for i := range ids {
		ids[i], _ = sc.SRAAt(st, i)
	}
	return ids
}

// reference is the consumer's reference for one SRA as a test compares
// it: read from the contract's records in state (referenceOf), or folded
// from a scan of canonical receipts (scanReference).
type reference struct {
	Reports, Confirmed uint64
	BySeverity         [types.SeverityHigh + 1]uint64
}

// referenceOf reads an SRA's reference from the head state.
func (c *Chain) referenceOf(sraID types.Hash) reference {
	info, err := c.cfg.Contract.GetSRA(c.lockedState(), sraID)
	if err != nil {
		return reference{}
	}
	ref := reference{Reports: info.Reports, Confirmed: info.ConfirmedVulns}
	for sev := types.SeverityLow; sev <= types.SeverityHigh; sev++ {
		ref.BySeverity[sev] = info.BySeverity(sev)
	}
	return ref
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

// detectionResultsScan is the reference implementation of the consumer's
// reference: a linear scan of the canonical chain for the receipts of the
// report transactions naming an SRA, in chain order. Every block scanned
// must have been executed here, not installed from a snapshot.
func (c *Chain) detectionResultsScan(sraID types.Hash) []*Receipt {
	c.mu.RLock()
	defer c.mu.RUnlock()
	var out []*Receipt
	for _, e := range c.canon {
		for j, tx := range e.block().Txs {
			if id, ok := reportSRAID(tx); ok && id == sraID {
				out = append(out, e.receipts()[j])
			}
		}
	}
	return out
}

// scanReference folds detectionResultsScan into the reference the
// contract's records must hold: the successful reports, and the findings
// the successful R*s accepted.
func (c *Chain) scanReference(sraID types.Hash) reference {
	var ref reference
	for _, r := range c.detectionResultsScan(sraID) {
		if !r.Success {
			continue
		}
		ref.Reports++
		for _, f := range r.Payout.Accepted {
			ref.Confirmed++
			ref.BySeverity[f.Severity]++
		}
	}
	return ref
}

// sraListingScan lists the successful SRA announcements on the canonical
// chain in chain order: what the contract's listing must hold.
func (c *Chain) sraListingScan() []types.Hash {
	c.mu.RLock()
	defer c.mu.RUnlock()
	ids := []types.Hash{}
	for _, e := range c.canon {
		for j, tx := range e.block().Txs {
			if tx.Kind != types.TxSRA || !e.receipts()[j].Success {
				continue
			}
			if sra, err := tx.SRA(); err == nil {
				ids = append(ids, sra.ID)
			}
		}
	}
	return ids
}
