package state

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

var (
	copySink   *DB
	digestSink types.Hash
)

// TestCopyIsConstant pins Copy's complexity: forking a rooted 10,000-
// account state allocates the new DB and nothing that scales with it.
func TestCopyIsConstant(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget is not meaningful under -race")
	}
	db := New()
	for i := 0; i < 10_000; i++ {
		_ = db.Credit(benchAddr(i), types.Amount(i+1))
	}
	db.Root()
	if allocs := testing.AllocsPerRun(100, func() { copySink = db.Copy() }); allocs > 2 {
		t.Fatalf("Copy() of a 10k-account state made %.0f allocations, want <= 2", allocs)
	}
}

// TestAccountDigestDoesNotAllocate: the digest streams through a pooled
// sponge and squeezes it in place, so the leaf of every touched account —
// the call Root makes most — costs no heap, with storage or without.
func TestAccountDigestDoesNotAllocate(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget is not meaningful under -race")
	}
	db := New()
	addr := benchAddr(1)
	_ = db.Credit(addr, 5)
	for _, slots := range []int{0, 3} {
		for i := 0; i < slots; i++ {
			db.SetStorage(addr, types.Hash{byte(i + 1)}, types.Hash{1})
		}
		acc := db.get(addr)
		if allocs := testing.AllocsPerRun(100, func() { digestSink = accountDigest(addr[:], &acc) }); allocs != 0 {
			t.Errorf("accountDigest of an account with %d slots made %.0f allocations, want 0", slots, allocs)
		}
	}
}

// TestSetStorageAfterCopyIsPathSized pins the write cost that matters to
// the protocol: every Δ, R† and R* writes the one contract account, so
// the first slot write after a fork must cost one trie path, not a copy
// of every slot the contract has ever held.
func TestSetStorageAfterCopyIsPathSized(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget is not meaningful under -race")
	}
	db := New()
	contract := benchAddr(0)
	slot := func(i int) types.Hash { return types.HashBytes([]byte{byte(i >> 8), byte(i), 0x51}) }
	for i := 0; i < 10_000; i++ {
		db.SetStorage(contract, slot(i), slot(i+1))
	}
	db.Root()

	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		cp := db.Copy()
		cp.SetStorage(contract, slot(i*37), slot(i))
	}
	runtime.ReadMemStats(&after)
	if perWrite := (after.TotalAlloc - before.TotalAlloc) / runs; perWrite >= 8<<10 {
		t.Fatalf("Copy() + one SetStorage on a 10k-slot account allocated %d B, want < 8 KiB", perWrite)
	}
}

// TestTransferInsideSnapshotWritesOnlyRecords pins the write window: after
// a Snapshot the first transfer path-copies the two accounts' branches,
// and every later write until the next freeze point rewrites those in
// place, so a transfer costs the account records it installs and no trie
// node — where a path copy per write made it O(depth) nodes each.
func TestTransferInsideSnapshotWritesOnlyRecords(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget is not meaningful under -race")
	}
	db := New()
	for i := 0; i < 1000; i++ {
		_ = db.Credit(benchAddr(i), 1_000_000)
	}
	db.Root()
	db.Snapshot()
	from, to := benchAddr(3), benchAddr(997)
	if allocs := testing.AllocsPerRun(100, func() { _ = db.Transfer(from, to, 1) }); allocs > 3 {
		t.Fatalf("a transfer inside a snapshot made %.0f allocations, want <= 3 (its account records)", allocs)
	}
}

// TestSharedStateReadersBesideWriter is the publication pattern the chain
// relies on, under the race detector: each generation is rooted, then
// published; readers call every read-only method on whatever is current
// while the writer forks it, mutates the fork and roots that.
func TestSharedStateReadersBesideWriter(t *testing.T) {
	contract := benchAddr(0)
	slot := func(i int) types.Hash { return types.HashBytes([]byte{byte(i), 0x52}) }
	base := New()
	for i := 0; i < 200; i++ {
		_ = base.Credit(benchAddr(i), types.Amount(i+1))
		base.SetStorage(contract, slot(i), slot(i+1))
	}
	base.Root()
	var current atomic.Pointer[DB]
	current.Store(base)

	done := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				st := current.Load()
				_ = st.Balance(benchAddr(i % 200))
				_ = st.GetStorage(contract, slot(i%200))
				root := st.Root()
				if i%8 == r {
					restored, err := Restore(st.Serialize())
					if err != nil {
						t.Errorf("reader %d: Restore: %v", r, err)
						return
					}
					if restored.Root() != root {
						t.Errorf("reader %d: a published state serialized to a different root", r)
						return
					}
				}
			}
		}(r)
	}

	for gen := 0; gen < 300; gen++ {
		next := current.Load().Copy()
		snap := next.Snapshot()
		_ = next.Transfer(benchAddr(gen%200), benchAddr((gen+1)%200), 1)
		next.SetStorage(contract, slot(gen%200), slot(gen+7))
		if gen%5 == 0 {
			if err := next.RevertToSnapshot(snap); err != nil {
				t.Fatal(err)
			}
		}
		next.SetStorage(contract, slot((gen+3)%200), types.Hash{})
		next.DiscardSnapshots()
		next.Root()
		current.Store(next)
	}
	close(done)
	readers.Wait()
}
