// Package txpool implements the pending-transaction pool mining providers
// draw from when assembling SmartCrowd blocks. Transactions are kept per
// sender in nonce order; block assembly selects by gas price (highest
// first) while respecting nonce sequencing, mirroring geth's pending pool.
package txpool

import (
	"cmp"
	"container/heap"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"sync"

	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// Pool errors.
var (
	ErrKnownTx      = errors.New("txpool: transaction already pooled")
	ErrUnderpriced  = errors.New("txpool: replacement transaction underpriced")
	ErrPoolFull     = errors.New("txpool: pool capacity reached")
	ErrNonceTooLow  = errors.New("txpool: nonce below sender's confirmed nonce")
	ErrInvalidTx    = errors.New("txpool: transaction failed validation")
	ErrUnaffordable = errors.New("txpool: sender balance below transaction cost")
)

// StateReader supplies the account facts admission control needs.
type StateReader interface {
	Nonce(types.Address) uint64
	Balance(types.Address) types.Amount
}

// poolCapacity bounds the total pooled transactions.
const poolCapacity = 4096

// priceBump is the minimum percent gas-price increase for replacing a
// same-nonce transaction.
const priceBump = 10

// Pool is a thread-safe pending pool. Each transaction is held once by
// value in byHash, with its arrival number, and once in its sender's run:
// the sender's transactions sorted by nonce, one per nonce.
type Pool struct {
	mu sync.Mutex
	// capacity is poolCapacity; a test shrinks it.
	capacity int
	byHash   map[types.Hash]pooled
	bySender map[types.Address][]pooled
	seq      uint64 // arrivals so far; the next one's number
}

// pooled is one transaction and its arrival number, which orders
// same-price transactions first-come-first-served at block assembly, as
// geth does.
type pooled struct {
	tx  *types.Transaction
	seq uint64
}

// New creates an empty pool.
func New() *Pool {
	return &Pool{
		capacity: poolCapacity,
		byHash:   make(map[types.Hash]pooled),
		bySender: make(map[types.Address][]pooled),
	}
}

// Add admits a transaction after stateless validation and solvency checks
// against the supplied state view. The expensive stateless work — ECDSA
// sender recovery inside ValidateBasic, the transaction hash — runs before
// the pool mutex is taken, so concurrent submitters never serialize on
// signature recovery.
func (p *Pool) Add(tx *types.Transaction, st StateReader) error {
	if err := tx.ValidateBasic(); err != nil {
		mAdmitInvalid.Inc()
		return fmt.Errorf("%w: %v", ErrInvalidTx, err)
	}
	hash := tx.Hash()

	p.mu.Lock()
	defer p.mu.Unlock()
	err := p.admitLocked(tx, hash, st)
	recordAdmit(err)
	mPending.Set(int64(len(p.byHash)))
	return err
}

// AddAllTraced admits a batch of transactions. Sender recovery is warmed
// in parallel across the shared recovery pool and all stateless
// validation happens before the lock, so the critical section is pure map
// work. The result has one entry per transaction (nil = admitted), letting
// callers relay exactly the admitted subset; order of admission matches
// slice order, so the batch behaves like sequential Add calls. The whole
// batch is covered by one admission span (spans are batch-granular, never
// per-transaction) parented into tc when valid.
func (p *Pool) AddAllTraced(txs []*types.Transaction, st StateReader, tc telemetry.TraceContext) []error {
	errs := make([]error, len(txs))
	if len(txs) == 0 {
		return errs
	}
	span := telemetry.StartSpanIn(tc, "txpool.AddAll")
	defer func() {
		admitted := 0
		for _, err := range errs {
			if err == nil {
				admitted++
			}
		}
		span.End(telemetry.L("txs", strconv.Itoa(len(txs))), telemetry.L("admitted", strconv.Itoa(admitted)))
	}()
	types.RecoverSenders(txs)
	hashes := make([]types.Hash, len(txs))
	for i, tx := range txs {
		if err := tx.ValidateBasic(); err != nil {
			errs[i] = fmt.Errorf("%w: %v", ErrInvalidTx, err)
			mAdmitInvalid.Inc()
			continue
		}
		hashes[i] = tx.Hash()
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	for i, tx := range txs {
		if errs[i] != nil {
			continue
		}
		errs[i] = p.admitLocked(tx, hashes[i], st)
		recordAdmit(errs[i])
	}
	mPending.Set(int64(len(p.byHash)))
	return errs
}

// admitLocked performs the stateful admission checks and inserts the
// (already validated) transaction. Callers hold the lock.
func (p *Pool) admitLocked(tx *types.Transaction, hash types.Hash, st StateReader) error {
	sender := tx.From
	if _, known := p.byHash[hash]; known {
		return ErrKnownTx
	}
	if st != nil {
		if tx.Nonce < st.Nonce(sender) {
			return fmt.Errorf("%w: confirmed %d, tx %d", ErrNonceTooLow, st.Nonce(sender), tx.Nonce)
		}
		if st.Balance(sender) < tx.Cost() {
			return fmt.Errorf("%w: balance %s, cost %s", ErrUnaffordable, st.Balance(sender), tx.Cost())
		}
	}

	run := p.bySender[sender]
	i := nonceIndex(run, tx.Nonce)
	replace := i < len(run) && run[i].tx.Nonce == tx.Nonce
	if replace {
		// Same-nonce replacement requires a meaningful price bump.
		existing := run[i].tx
		threshold := existing.GasPrice + existing.GasPrice*priceBump/100
		if tx.GasPrice < threshold {
			return fmt.Errorf("%w: have %s, need ≥ %s", ErrUnderpriced, tx.GasPrice, threshold)
		}
		delete(p.byHash, existing.Hash())
	} else if len(p.byHash) >= p.capacity {
		return ErrPoolFull
	}

	p.seq++
	e := pooled{tx: tx, seq: p.seq}
	if replace {
		run[i] = e
	} else {
		p.bySender[sender] = slices.Insert(run, i, e)
	}
	p.byHash[hash] = e
	return nil
}

// nonceIndex is the index in run of the first transaction whose nonce is
// at least nonce.
func nonceIndex(run []pooled, nonce uint64) int {
	i, _ := slices.BinarySearchFunc(run, nonce, func(e pooled, n uint64) int { return cmp.Compare(e.tx.Nonce, n) })
	return i
}

// Get returns the pooled transaction with the given hash, or nil. The hash
// covers every signed byte and the signature, so the result is
// byte-identical to any other transaction with that hash — and already
// validated, with its sender recovered.
func (p *Pool) Get(hash types.Hash) *types.Transaction {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.byHash[hash].tx
}

// Len returns the number of pooled transactions.
func (p *Pool) Len() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.byHash)
}

// Remove drops a transaction (e.g. after inclusion in a block).
func (p *Pool) Remove(hash types.Hash) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.removeLocked(hash)
	mPending.Set(int64(len(p.byHash)))
}

func (p *Pool) removeLocked(hash types.Hash) {
	e, ok := p.byHash[hash]
	if !ok {
		return
	}
	delete(p.byHash, hash)
	sender := e.tx.From
	run := p.bySender[sender]
	i := nonceIndex(run, e.tx.Nonce)
	p.setRun(sender, slices.Delete(run, i, i+1))
}

// setRun stores a sender's run, or forgets the sender when it is empty.
func (p *Pool) setRun(sender types.Address, run []pooled) {
	if len(run) == 0 {
		delete(p.bySender, sender)
		return
	}
	p.bySender[sender] = run
}

// Prune drops every transaction whose nonce is now below the sender's
// confirmed nonce (called after a new block lands).
func (p *Pool) Prune(st StateReader) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for sender, run := range p.bySender {
		stale := nonceIndex(run, st.Nonce(sender))
		if stale == 0 {
			continue
		}
		for _, e := range run[:stale] {
			delete(p.byHash, e.tx.Hash())
		}
		p.setRun(sender, slices.Delete(run, 0, stale))
	}
	mPending.Set(int64(len(p.byHash)))
}

// Pending selects up to maxTxs transactions (all, when maxTxs <= 0) for
// block assembly. A sender's runnable transactions are the consecutive
// nonces from its confirmed nonce; later ones are skipped (gapped). Across
// senders the next transaction is the runnable head with the highest gas
// price, the earliest arrival among equal prices, so a sender's
// transactions stay in nonce order. The heads are kept in a heap: T
// transactions from S senders cost O(T log S).
func (p *Pool) Pending(st StateReader, maxTxs int) []*types.Transaction {
	p.mu.Lock()
	defer p.mu.Unlock()

	heads := make(runHeap, 0, len(p.bySender))
	total := 0
	for sender, run := range p.bySender {
		start := uint64(0)
		if st != nil {
			start = st.Nonce(sender)
		}
		i := nonceIndex(run, start)
		n := 0
		for i+n < len(run) && run[i+n].tx.Nonce == start+uint64(n) {
			n++
		}
		if n > 0 {
			heads = append(heads, run[i:i+n])
			total += n
		}
	}
	if maxTxs > 0 {
		total = min(total, maxTxs)
	}
	out := make([]*types.Transaction, 0, total)
	heap.Init(&heads)
	for len(out) < total {
		run := heads[0]
		out = append(out, run[0].tx)
		if len(run) > 1 {
			heads[0] = run[1:]
		} else {
			last := len(heads) - 1
			heads[0] = heads[last]
			heads = heads[:last]
		}
		if len(heads) > 0 {
			heap.Fix(&heads, 0)
		}
	}
	return out
}

// runHeap orders runnable runs by their head: gas price descending, then
// arrival. Only Init and Fix are used, so Push and Pop are never called.
type runHeap [][]pooled

func (h runHeap) Len() int { return len(h) }
func (h runHeap) Less(i, j int) bool {
	a, b := h[i][0], h[j][0]
	if a.tx.GasPrice != b.tx.GasPrice {
		return a.tx.GasPrice > b.tx.GasPrice
	}
	return a.seq < b.seq
}
func (h runHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *runHeap) Push(any)     { panic("txpool: runHeap.Push") }
func (h *runHeap) Pop() any     { panic("txpool: runHeap.Pop") }
