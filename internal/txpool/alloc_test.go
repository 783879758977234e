//go:build !race

// Allocation pins: the race detector's instrumentation allocates on its
// own, so these run without it only.

package txpool

import (
	"strconv"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// floodPool is a pool of txs transactions from senders senders, nonces
// 0…txs/senders-1 each, at prices cycling over four values so ties are
// common; the state confirms nothing, so every transaction is runnable.
func floodPool(tb testing.TB, txs, senders int) (*Pool, *fakeState) {
	tb.Helper()
	p, st := New(), newFakeState()
	for s := 0; s < senders; s++ {
		w := wallet.NewDeterministic("flood-" + strconv.Itoa(s))
		for n := 0; n < txs/senders; n++ {
			tx := &types.Transaction{Kind: types.TxTransfer, Nonce: uint64(n), To: types.Address{1}, Value: 1,
				GasLimit: 21_000, GasPrice: types.Amount(1+(s+n)%4) * types.GWei}
			if err := types.SignTx(tx, w); err != nil {
				tb.Fatal(err)
			}
			if err := p.Add(tx, st); err != nil {
				tb.Fatal(err)
			}
		}
	}
	return p, st
}

// BenchmarkPending selects a full pool: 4,096 transactions from 1,024
// senders, the pool's capacity.
func BenchmarkPending(b *testing.B) {
	p, st := floodPool(b, poolCapacity, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := p.Pending(st, 0); len(got) != poolCapacity {
			b.Fatalf("%d pending", len(got))
		}
	}
}

// TestPendingAllocatesThree is BenchmarkPending's gate, as a count: a full
// pool's selection allocates the heap of runs, the heap's interface
// value and the result, whatever the pool holds.
func TestPendingAllocatesThree(t *testing.T) {
	p, st := floodPool(t, poolCapacity, 1024)
	if allocs := testing.AllocsPerRun(5, func() { p.Pending(st, 0) }); allocs > 3 {
		t.Errorf("Pending of a full pool allocates %v times, want at most 3", allocs)
	}
}

// TestNewSenderAddAllocatesLittle pins a new sender's first admission,
// once its sender is recovered and its hash known: the sender's run of
// one, plus the two maps' amortised growth. A map per sender (the old
// nonce index) cost two more.
func TestNewSenderAddAllocatesLittle(t *testing.T) {
	const senders = 512
	txs := make([]*types.Transaction, senders+1)
	for i := range txs {
		tx := &types.Transaction{Kind: types.TxTransfer, To: types.Address{1}, Value: 1, GasLimit: 21_000, GasPrice: types.GWei}
		if err := types.SignTx(tx, wallet.NewDeterministic("new-"+strconv.Itoa(i))); err != nil {
			t.Fatal(err)
		}
		if err := tx.ValidateBasic(); err != nil {
			t.Fatal(err)
		}
		txs[i] = tx
	}
	p, st := New(), newFakeState()
	next := 0
	allocs := testing.AllocsPerRun(senders, func() {
		if err := p.Add(txs[next], st); err != nil {
			t.Fatal(err)
		}
		next++
	})
	if allocs > 1.1 {
		t.Errorf("a new sender's first Add allocates %v times, want at most 1.1", allocs)
	}
}
