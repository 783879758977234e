// Package txpool implements the pending-transaction pool mining providers
// draw from when assembling SmartCrowd blocks. Transactions are kept per
// sender in nonce order; block assembly selects by gas price (highest
// first) while respecting nonce sequencing, mirroring geth's pending pool.
package txpool

import (
	"errors"
	"fmt"
	"sort"
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

// Pool is a thread-safe pending pool.
type Pool struct {
	mu sync.Mutex
	// capacity is poolCapacity; a test shrinks it.
	capacity  int
	perSender map[types.Address]map[uint64]*types.Transaction // nonce → tx
	byHash    map[types.Hash]*types.Transaction
	// arrival orders same-price transactions first-come-first-served at
	// block assembly, as geth does.
	arrival map[types.Hash]uint64
	seq     uint64
}

// New creates an empty pool.
func New() *Pool {
	return &Pool{
		capacity:  poolCapacity,
		perSender: make(map[types.Address]map[uint64]*types.Transaction),
		byHash:    make(map[types.Hash]*types.Transaction),
		arrival:   make(map[types.Hash]uint64),
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

	bucket := p.perSender[sender]
	if existing, ok := bucket[tx.Nonce]; ok {
		// Same-nonce replacement requires a meaningful price bump.
		threshold := existing.GasPrice + existing.GasPrice*priceBump/100
		if tx.GasPrice < threshold {
			return fmt.Errorf("%w: have %s, need ≥ %s", ErrUnderpriced, tx.GasPrice, threshold)
		}
		delete(p.byHash, existing.Hash())
		delete(p.arrival, existing.Hash())
	} else if len(p.byHash) >= p.capacity {
		return ErrPoolFull
	}

	if bucket == nil {
		bucket = make(map[uint64]*types.Transaction)
		p.perSender[sender] = bucket
	}
	bucket[tx.Nonce] = tx
	p.byHash[hash] = tx
	p.seq++
	p.arrival[hash] = p.seq
	return nil
}

// Get returns the pooled transaction with the given hash, or nil. The hash
// covers every signed byte and the signature, so the result is
// byte-identical to any other transaction with that hash — and already
// validated, with its sender recovered.
func (p *Pool) Get(hash types.Hash) *types.Transaction {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.byHash[hash]
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
	tx, ok := p.byHash[hash]
	if !ok {
		return
	}
	delete(p.byHash, hash)
	delete(p.arrival, hash)
	bucket := p.perSender[tx.From]
	delete(bucket, tx.Nonce)
	if len(bucket) == 0 {
		delete(p.perSender, tx.From)
	}
}

// Prune drops every transaction whose nonce is now below the sender's
// confirmed nonce (called after a new block lands).
func (p *Pool) Prune(st StateReader) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for sender, bucket := range p.perSender {
		confirmed := st.Nonce(sender)
		for nonce, tx := range bucket {
			if nonce < confirmed {
				delete(p.byHash, tx.Hash())
				delete(p.arrival, tx.Hash())
				delete(bucket, nonce)
			}
		}
		if len(bucket) == 0 {
			delete(p.perSender, sender)
		}
	}
	mPending.Set(int64(len(p.byHash)))
}

// Pending selects up to maxTxs transactions for block assembly: senders'
// transactions stay nonce-ordered, and across senders higher-fee
// transactions win. Transactions whose nonce does not chain onto the
// sender's confirmed nonce are skipped (gapped).
func (p *Pool) Pending(st StateReader, maxTxs int) []*types.Transaction {
	p.mu.Lock()
	defer p.mu.Unlock()

	// Build per-sender runnable queues: consecutive nonces starting at the
	// confirmed nonce.
	type queue struct {
		txs []*types.Transaction
	}
	queues := make([]*queue, 0, len(p.perSender))
	for sender, bucket := range p.perSender {
		start := uint64(0)
		if st != nil {
			start = st.Nonce(sender)
		}
		q := &queue{}
		for n := start; ; n++ {
			tx, ok := bucket[n]
			if !ok {
				break
			}
			q.txs = append(q.txs, tx)
		}
		if len(q.txs) > 0 {
			queues = append(queues, q)
		}
	}

	// Deterministic order: sort queues by head gas price desc, tie-break
	// by the head's arrival order in this pool.
	var out []*types.Transaction
	for len(out) < maxTxs || maxTxs <= 0 {
		sort.Slice(queues, func(i, j int) bool {
			a, b := queues[i].txs[0], queues[j].txs[0]
			if a.GasPrice != b.GasPrice {
				return a.GasPrice > b.GasPrice
			}
			return p.arrival[a.Hash()] < p.arrival[b.Hash()]
		})
		if len(queues) == 0 {
			break
		}
		out = append(out, queues[0].txs[0])
		queues[0].txs = queues[0].txs[1:]
		if len(queues[0].txs) == 0 {
			queues = queues[1:]
		}
		if maxTxs > 0 && len(out) >= maxTxs {
			break
		}
	}
	return out
}
