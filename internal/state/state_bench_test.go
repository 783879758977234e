package state

import (
	"fmt"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// benchAddr derives a distinct, well-distributed address per index.
func benchAddr(i int) types.Address {
	h := types.HashBytes([]byte{byte(i >> 16), byte(i >> 8), byte(i)})
	var a types.Address
	copy(a[:], h[:20])
	return a
}

// populated returns a rooted state holding n funded accounts.
func populated(b *testing.B, n int) *DB {
	b.Helper()
	db := New()
	for i := 0; i < n; i++ {
		if err := db.Credit(benchAddr(i), types.Amount(i+1)); err != nil {
			b.Fatal(err)
		}
	}
	db.DiscardSnapshots()
	_ = db.Root()
	return db
}

// BenchmarkRootIncremental measures Root() at 10,000 accounts after
// touching k accounts — the per-block hot path. The seed implementation
// re-hashed the whole world here (~83 ms/op at n=10k on the reference
// machine); the memoised sum re-hashes k digests plus their O(log n)
// trie paths (~90 µs at k=1).
func BenchmarkRootIncremental(b *testing.B) {
	for _, k := range []int{1, 10, 100} {
		b.Run(fmt.Sprintf("n=10000/k=%d", k), func(b *testing.B) {
			db := populated(b, 10_000)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := 0; j < k; j++ {
					_ = db.Credit(benchAddr((i*k+j)%10_000), 1)
				}
				db.DiscardSnapshots()
				_ = db.Root()
			}
		})
	}
}

// BenchmarkRootFullBuild measures the from-empty cost (genesis, snapshot
// restore) for context next to the incremental numbers.
func BenchmarkRootFullBuild(b *testing.B) {
	for _, n := range []int{1000, 10_000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				db := New()
				for j := 0; j < n; j++ {
					_ = db.Credit(benchAddr(j), types.Amount(j+1))
				}
				_ = db.Root()
			}
		})
	}
}

// BenchmarkCopy measures the fork cost at 10,000 accounts: sharing the
// trie root, ~130 ns and no allocation that scales. The seed deep copy
// paid ~2.1 ms here.
func BenchmarkCopy(b *testing.B) {
	db := populated(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = db.Copy()
	}
}

// BenchmarkCopyThenTouch measures the realistic per-block pattern: fork
// the world, mutate a handful of accounts, recompute the root (~0.7 ms /
// 17 KB).
func BenchmarkCopyThenTouch(b *testing.B) {
	db := populated(b, 10_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cp := db.Copy()
		for j := 0; j < 10; j++ {
			_ = cp.Credit(benchAddr((i+j)%10_000), 1)
		}
		cp.DiscardSnapshots()
		_ = cp.Root()
	}
}

// BenchmarkRootTouchOneSlot measures one block's write to a contract
// account that holds n slots: one slot rewritten, then Root. The storage
// root is the storage trie's memoised sum, so the cost is one slot's
// O(log n) path, flat in n; an account digest that hashed every slot made
// it linear in n.
func BenchmarkRootTouchOneSlot(b *testing.B) {
	slot := func(i int) types.Hash { return types.HashBytes([]byte{byte(i >> 16), byte(i >> 8), byte(i), 0x53}) }
	for _, n := range []int{100, 10_000, 100_000} {
		b.Run(fmt.Sprintf("slots=%d", n), func(b *testing.B) {
			db := New()
			contract := benchAddr(0)
			for i := 0; i < n; i++ {
				db.SetStorage(contract, slot(i), slot(i+1))
			}
			_ = db.Root()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db.SetStorage(contract, slot(i*7919%n), slot(i))
				_ = db.Root()
			}
		})
	}
}
