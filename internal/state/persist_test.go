package state

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/critbit"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

var (
	copySink   *DB
	digestSink types.Hash
	leafSink   *critbit.Node[account, [32]byte]
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

// TestAccountDigestDoesNotAllocate: the digest hashes a stack buffer
// through a pooled sponge, and the storage root it binds is memoised in
// the trie, so the leaf of every touched account — the call Root makes
// most — costs no heap, with storage or without.
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
// a Snapshot the first transfer path-copies the two accounts' branches
// and leaves, and every later write until the next freeze point rewrites
// those in place, records included, so a transfer allocates nothing.
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
	if allocs := testing.AllocsPerRun(100, func() { _ = db.Transfer(from, to, 1) }); allocs != 0 {
		t.Fatalf("a transfer inside a snapshot made %.0f allocations, want 0", allocs)
	}
}

// TestAccountLeafIs128Bytes pins what a path-copied account leaf costs:
// one allocation of 128 bytes, the node with its sum slot and the binding
// of key and record, which the leaf holds by value.
func TestAccountLeafIs128Bytes(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget is not meaningful under -race")
	}
	k, acc := trieKey(benchAddr(1)), account{balance: 1}
	set := func() { leafSink = critbit.Set[account, [32]byte](nil, k, acc, 0) }
	if n := testing.AllocsPerRun(100, set); n != 1 {
		t.Fatalf("an account leaf took %v allocations, want 1", n)
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		set()
	}
	runtime.ReadMemStats(&after)
	if size := (after.TotalAlloc - before.TotalAlloc) / runs; size != 128 {
		t.Fatalf("an account leaf allocates %d bytes, want 128", size)
	}
}

// TestWarmJournalAllocatesNothing pins the journal's storage: it comes
// from a pool at a block's first Snapshot and goes back at
// DiscardSnapshots, so once warm a block of transactions — a snapshot
// each, a balance, a nonce and a slot written under it, and every other
// one reverted — allocates exactly what the same writes and write-backs
// cost with no snapshot open.
func TestWarmJournalAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget is not meaningful under -race")
	}
	db := New()
	contract := benchAddr(0)
	for i := 0; i < 1000; i++ {
		_ = db.Credit(benchAddr(i), 1_000_000)
		db.SetStorage(contract, types.Hash{byte(i), 1}, types.Hash{1})
	}
	db.Root()
	block := func(journaled bool) {
		for i := 1; i <= 100; i++ {
			a, k := benchAddr(i), types.Hash{byte(i), 1}
			var id int
			if journaled {
				id = db.Snapshot()
			}
			_ = db.Credit(a, 1)
			db.SetNonce(a, uint64(i))
			db.SetStorage(contract, k, types.Hash{byte(i)})
			switch {
			case i%2 == 1:
			case journaled:
				if err := db.RevertToSnapshot(id); err != nil {
					t.Fatal(err)
				}
			default: // the write-backs a revert makes
				db.SetStorage(contract, k, types.Hash{1})
				_ = db.Debit(a, 1)
				db.SetNonce(a, 0)
			}
		}
		db.DiscardSnapshots()
	}
	block(true) // warms the pool and takes the block's trie paths
	journaled := testing.AllocsPerRun(20, func() { block(true) })
	plain := testing.AllocsPerRun(20, func() { block(false) })
	if journaled != plain {
		t.Fatalf("a journaled block made %.0f allocations, the same writes unjournaled %.0f: want equal", journaled, plain)
	}
}

// TestSharedStateReadersBesideWriter is the publication pattern the chain
// relies on, under the race detector: each generation is rooted, then
// published; readers call every read-only method on whatever is current,
// and on frozen copies of it, while the writer forks it, rewrites,
// inserts and deletes slots of the shared contract account in the fork,
// and roots that. Every storage trie node a reader reaches was summed
// before publication, so the readers' Root calls only read the memos.
func TestSharedStateReadersBesideWriter(t *testing.T) {
	contract := benchAddr(0)
	slot := func(i int) types.Hash { return types.HashBytes([]byte{byte(i), byte(i >> 8), 0x52}) }
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
				_ = st.GetStorage(contract, slot(i%400))
				root := st.Root()
				frozen := st.Copy()
				if frozen.Root() != root || frozen.GetStorage(contract, slot(i%400)) != st.GetStorage(contract, slot(i%400)) {
					t.Errorf("reader %d: a frozen copy reads differently from what it copied", r)
					return
				}
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
		next.SetStorage(contract, slot(200+gen%200), slot(gen)) // a new slot, or a rewrite
		if gen%5 == 0 {
			if err := next.RevertToSnapshot(snap); err != nil {
				t.Fatal(err)
			}
		}
		next.SetStorage(contract, slot((gen+3)%200), types.Hash{})
		next.SetStorage(contract, slot(200+(gen+100)%200), types.Hash{})
		next.DiscardSnapshots()
		next.Root()
		current.Store(next)
	}
	close(done)
	readers.Wait()
}
