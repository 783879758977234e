package types

import (
	"runtime"
	"sync"
)

// senderCacher is the shared worker pool that warms Transaction sender
// caches (geth's senderCacher pattern): ECDSA recovery is the most
// expensive stateless step of validating a transaction (≈ 80 µs on the
// limb kernel, a scalar multiplication either way), and is embarrassingly
// parallel, so every validation layer — chain insert, txpool admission,
// the simulator — hands whole transaction slices to this pool instead of
// recovering senders one by one on a single core.
//
// The pool is striped, not chunked: a slice of n transactions is split
// into min(threads, n) subtasks where subtask i handles txs[i], txs[i+k],
// txs[i+2k], … — no intermediate slice allocation, and the work stays
// balanced even when expensive transactions cluster.
var senderCacher = newTxSenderCacher(runtime.NumCPU())

// senderTask is one stripe of a recovery request.
type senderTask struct {
	txs  []*Transaction
	off  int             // first index of the stripe
	step int             // stripe stride
	stop func() bool     // polled between transactions; nil for never
	wg   *sync.WaitGroup // the request's stripes, done one by one
}

// txSenderCacher owns the worker goroutines and their task queue.
type txSenderCacher struct {
	threads int
	tasks   chan senderTask
}

func newTxSenderCacher(threads int) *txSenderCacher {
	c := &txSenderCacher{
		threads: threads,
		tasks:   make(chan senderTask, threads*8),
	}
	for i := 0; i < threads; i++ {
		go c.loop()
	}
	return c
}

// loop drains tasks forever. Workers only compute — they never send on
// the task channel — so blocking producers always make progress.
func (c *txSenderCacher) loop() {
	for t := range c.tasks {
		runStripe(t.txs, t.off, t.step, t.stop)
		t.wg.Done()
	}
}

// runStripe recovers one stripe, on a worker or (for tiny slices) inline,
// until stop (if set) reports true.
func runStripe(txs []*Transaction, off, step int, stop func() bool) {
	for i := off; i < len(txs); i += step {
		if stop != nil && stop() {
			return
		}
		_, _ = txs[i].Sender()
	}
}

// RecoverSenders warms the sender cache of every transaction in txs
// across the shared worker pool and returns once all are warm. Recovery
// failures are memoized like successes — the eventual ValidateBasic (or
// Sender) call surfaces them — so RecoverSenders itself never fails and
// is safe to call on unvalidated gossip.
func RecoverSenders(txs []*Transaction) {
	_ = RecoverSendersUntil(txs, nil) // never stopped
}

// RecoverSendersUntil is RecoverSenders for a caller that may give the
// batch up: every stripe polls stop between transactions, and once it
// reports true the remaining senders are left unrecovered and
// ErrCheckStopped is returned. stop is called from the pool's goroutines.
func RecoverSendersUntil(txs []*Transaction, stop func() bool) error {
	if len(txs) == 0 {
		return nil
	}
	mRecoverBatchTxs.Observe(uint64(len(txs)))
	if len(txs) == 1 || senderCacher.threads == 1 {
		runStripe(txs, 0, 1, stop)
		return stopped(stop)
	}
	stripes := senderCacher.threads
	if stripes > len(txs) {
		stripes = len(txs)
	}
	var wg sync.WaitGroup
	wg.Add(stripes)
	for i := 0; i < stripes; i++ {
		senderCacher.tasks <- senderTask{txs: txs, off: i, step: stripes, stop: stop, wg: &wg}
	}
	wg.Wait()
	return stopped(stop)
}

// stopped is ErrCheckStopped when stop is set and reports true.
func stopped(stop func() bool) error {
	if stop != nil && stop() {
		return ErrCheckStopped
	}
	return nil
}
