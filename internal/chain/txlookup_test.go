package chain

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// checkLookups holds v's index-backed answers — ReceiptOf, TxLocation and
// Confirmations — for every transaction in txs against the oracle that
// does not read the index: a linear scan of v's canonical bodies beside
// the receipts their canon entries hold. A transaction in a block at or
// below v's horizon, and one v does not hold, has no location; a miss
// answers ErrBelowHorizon on a chain installed from a snapshot and
// ErrUnknownBlock on one grown from genesis.
func checkLookups(v *ReadView, txs []*types.Transaction) error {
	type found struct {
		id      types.Hash
		number  uint64
		idx     int
		receipt *Receipt
	}
	canon := map[types.Hash]found{}
	for n := uint64(1); n <= v.HeadNumber(); n++ {
		blk, err := v.BlockByNumber(n)
		if err != nil {
			return err
		}
		receipts := v.canon[n].receipts()
		if n > v.Horizon() && len(receipts) != len(blk.Txs) {
			return fmt.Errorf("block #%d holds %d transactions and %d receipts", n, len(blk.Txs), len(receipts))
		}
		for j, tx := range blk.Txs {
			if _, dup := canon[tx.Hash()]; dup {
				return fmt.Errorf("tx %s is canonical twice", tx.Hash().Short())
			}
			f := found{id: blk.ID(), number: n, idx: j}
			if n > v.Horizon() {
				f.receipt = receipts[j]
			}
			canon[tx.Hash()] = f
		}
	}
	miss := ErrUnknownBlock
	if v.Horizon() > 0 {
		miss = ErrBelowHorizon
	}
	for _, tx := range txs {
		h := tx.Hash()
		f, ok := canon[h]
		r, err := v.ReceiptOf(h)
		id, num, idx, located := v.TxLocation(h)
		conf := v.Confirmations(h)
		if !ok || f.number <= v.Horizon() {
			if r != nil || !errors.Is(err, miss) || located || conf != 0 {
				return fmt.Errorf("tx %s is not indexed at head %d (horizon %d), but ReceiptOf = %v, %v; TxLocation ok %v; Confirmations %d",
					h.Short(), v.HeadNumber(), v.Horizon(), r, err, located, conf)
			}
			continue
		}
		if err != nil || r != f.receipt || r.TxHash != h {
			return fmt.Errorf("ReceiptOf(%s) = %v, %v; the scan has block #%d's receipt %v", h.Short(), r, err, f.number, f.receipt)
		}
		if !located || id != f.id || num != f.number || idx != f.idx {
			return fmt.Errorf("TxLocation(%s) = %s, %d, %d, %v; the scan has %s, %d, %d",
				h.Short(), id.Short(), num, idx, located, f.id.Short(), f.number, f.idx)
		}
		if want := v.HeadNumber() - f.number + 1; conf != want {
			return fmt.Errorf("Confirmations(%s) = %d at head %d, want %d", h.Short(), conf, v.HeadNumber(), want)
		}
	}
	return nil
}

// lookupChain grows a random block tree of transfers from two senders:
// each block takes, per sender, the transaction with the next nonce of
// its parent's branch, made once per nonce — so a fork re-includes the
// very transaction the branch it replaces held, wherever its own blocks
// put it.
type lookupChain struct {
	t       *testing.T
	rng     *rand.Rand
	c       *Chain
	senders []*wallet.Wallet
	payee   types.Address
	miner   types.Address
	// next is, per block id, each sender's next nonce after the block.
	next map[types.Hash][]uint64
	// made is each sender's transactions by nonce.
	made [][]*types.Transaction
	// views is every view published so far, held.
	views []*ReadView

	mu  sync.Mutex
	txs []*types.Transaction // every transaction made, for the readers
}

// nextTxs returns, for each sender with probability p, its transaction
// with the next nonce on parent's branch.
func (lc *lookupChain) nextTxs(parent types.Hash, p float64) []*types.Transaction {
	var txs []*types.Transaction
	for s, w := range lc.senders {
		if lc.rng.Float64() >= p {
			continue
		}
		nonce := lc.next[parent][s]
		if nonce == uint64(len(lc.made[s])) {
			tx := &types.Transaction{Kind: types.TxTransfer, Nonce: nonce, To: lc.payee, Value: 1, GasLimit: 21_000, GasPrice: testGasPrice}
			if err := types.SignTx(tx, w); err != nil {
				lc.t.Fatal(err)
			}
			lc.made[s] = append(lc.made[s], tx)
			lc.mu.Lock()
			lc.txs = append(lc.txs, tx)
			lc.mu.Unlock()
		}
		txs = append(txs, lc.made[s][nonce])
	}
	return txs
}

// extend builds txs on parent, inserts the block and holds the view the
// chain publishes next.
func (lc *lookupChain) extend(parent types.Hash, difficulty uint64, txs []*types.Transaction) *types.Block {
	lc.t.Helper()
	raw, err := lc.c.BlockByID(parent)
	if err != nil {
		lc.t.Fatal(err)
	}
	hdr, err := types.DecodeHeader(raw)
	if err != nil {
		lc.t.Fatal(err)
	}
	blk, err := lc.c.BuildBlock(parent, lc.miner, hdr.Time+15_000+uint64(lc.rng.Intn(1000)), difficulty, txs)
	if err != nil {
		lc.t.Fatal(err)
	}
	if _, err := lc.c.InsertBlock(blk); err != nil {
		lc.t.Fatal(err)
	}
	next := append([]uint64(nil), lc.next[parent]...)
	for _, tx := range txs {
		for s, made := range lc.made {
			if tx.Nonce < uint64(len(made)) && made[tx.Nonce] == tx {
				next[s]++
			}
		}
	}
	lc.next[blk.ID()] = next
	lc.views = append(lc.views, lc.c.CurrentView())
	return blk
}

// grow takes steps random blocks: most on the head, the rest on one of
// the three blocks below it, never below floor, with difficulties that
// let some of those forks win and some stay side branches.
func (lc *lookupChain) grow(steps int, floor uint64) {
	for i := 0; i < steps; i++ {
		v := lc.c.CurrentView()
		parent := v.HeadNumber()
		if lc.rng.Intn(4) == 0 {
			parent -= min(uint64(1+lc.rng.Intn(3)), parent-floor)
		}
		hdr, err := v.HeaderByNumber(parent)
		if err != nil {
			lc.t.Fatal(err)
		}
		lc.extend(hdr.ID(), uint64(1000*(1+lc.rng.Intn(3))), lc.nextTxs(hdr.ID(), 0.6))
	}
}

// reinclude forks two blocks below the head onto a heavier branch whose
// first block is empty, so the branch it replaces has its transactions
// included again one height higher, and checks that happened.
func (lc *lookupChain) reinclude() {
	lc.t.Helper()
	fork := lc.c.CurrentView().Head()
	a1 := lc.extend(fork.ID(), 1000, lc.nextTxs(fork.ID(), 1))
	a2 := lc.extend(a1.ID(), 1000, lc.nextTxs(a1.ID(), 1))
	held := lc.c.CurrentView()
	b1 := lc.extend(fork.ID(), 3000, nil)
	b2 := lc.extend(b1.ID(), 3000, a1.Txs)
	b3 := lc.extend(b2.ID(), 3000, a2.Txs)
	now := lc.c.CurrentView()
	if now.HeadID() != b3.ID() {
		lc.t.Fatal("the heavier branch did not become the head")
	}
	tx := a1.Txs[0].Hash()
	_, was, _, _ := held.TxLocation(tx)
	_, is, _, _ := now.TxLocation(tx)
	if was != a1.Header.Number || is != b2.Header.Number {
		lc.t.Fatalf("tx %s was at #%d and is at #%d; want #%d, then #%d", tx.Short(), was, is, a1.Header.Number, b2.Header.Number)
	}
}

// madeSoFar is the transactions made so far.
func (lc *lookupChain) madeSoFar() []*types.Transaction {
	lc.mu.Lock()
	defer lc.mu.Unlock()
	return lc.txs[:len(lc.txs):len(lc.txs)]
}

// TestTxLookupsMatchCanonScan is the transaction index's oracle that does
// not read the index: on random chains with reorgs — one of them
// re-including a transaction at another height on the winning branch —
// every view the chain published, current or held, answers ReceiptOf,
// TxLocation and Confirmations as a linear scan of that view's canonical
// bodies and receipts does, while a reader checks the current view beside
// the commits. A chain snap-joined at the head then answers
// ErrBelowHorizon for everything at or below its snapshot, and the scan
// above it.
func TestTxLookupsMatchCanonScan(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			h := newHarness(t)
			lc := &lookupChain{
				t: t, rng: rand.New(rand.NewSource(seed)), c: h.chain,
				senders: []*wallet.Wallet{h.provider, h.detector},
				payee:   wallet.NewDeterministic("payee").Address(),
				miner:   h.miner.Address(),
				next:    map[types.Hash][]uint64{h.chain.Head().ID(): {0, 0}},
				made:    make([][]*types.Transaction, 2),
			}
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := checkLookups(lc.c.CurrentView(), lc.madeSoFar()); err != nil {
						t.Error(err)
						return
					}
				}
			}()
			lc.grow(12, 0)
			lc.reinclude()
			lc.grow(12, 0)
			close(stop)
			wg.Wait()
			for i, v := range lc.views {
				if err := checkLookups(v, lc.txs); err != nil {
					t.Fatalf("view %d (head #%d): %v", i, v.HeadNumber(), err)
				}
			}

			lc.c = adoptHead(t, h.chain)
			horizon := lc.c.CurrentView().Horizon()
			if horizon == 0 {
				t.Fatal("the snap-joined chain has no horizon")
			}
			lc.views = lc.views[:0]
			lc.grow(12, horizon)
			for i, v := range append(lc.views, lc.c.CurrentView()) {
				if err := checkLookups(v, lc.txs); err != nil {
					t.Fatalf("snap-joined view %d (head #%d, horizon %d): %v", i, v.HeadNumber(), horizon, err)
				}
			}
		})
	}
}
