package state

import (
	"errors"
	"sort"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

func viewBase(t *testing.T) *DB {
	t.Helper()
	db := New()
	if err := db.Credit(types.Address{1}, 1000); err != nil {
		t.Fatal(err)
	}
	db.SetNonce(types.Address{1}, 7)
	db.SetCode(types.Address{2}, []byte{0xAA, 0xBB})
	db.SetStorage(types.Address{2}, types.Hash{0x01}, types.Hash{0x11})
	db.DiscardSnapshots()
	return db
}

func TestViewReadFallthrough(t *testing.T) {
	db := viewBase(t)
	v := NewRecordingView(db)

	if got := v.Balance(types.Address{1}); got != 1000 {
		t.Fatalf("balance: got %d", got)
	}
	if got := v.Nonce(types.Address{1}); got != 7 {
		t.Fatalf("nonce: got %d", got)
	}
	if got := v.Code(types.Address{2}); len(got) != 2 || got[0] != 0xAA {
		t.Fatalf("code: got %x", got)
	}
	if got := v.GetStorage(types.Address{2}, types.Hash{0x01}); got != (types.Hash{0x11}) {
		t.Fatalf("storage: got %x", got)
	}
	if got := v.Balance(types.Address{9}); got != 0 {
		t.Fatalf("unknown account balance: got %d", got)
	}

	if reads := v.Reads(); len(reads) != 3 {
		t.Fatalf("reads: got %v", reads)
	}
	if writes := v.Writes(); len(writes) != 0 {
		t.Fatalf("writes should be empty, got %v", writes)
	}
}

func TestViewWriteIsolation(t *testing.T) {
	db := viewBase(t)
	preRoot := db.Root()
	v := NewRecordingView(db)

	if err := v.Transfer(types.Address{1}, types.Address{3}, 400); err != nil {
		t.Fatal(err)
	}
	v.SetNonce(types.Address{1}, 8)
	v.SetStorage(types.Address{2}, types.Hash{0x01}, types.Hash{0x22})
	v.SetStorage(types.Address{2}, types.Hash{0x02}, types.Hash{0x33})
	v.SetCode(types.Address{4}, []byte{0xCC})

	// The view sees every mutation...
	if got := v.Balance(types.Address{1}); got != 600 {
		t.Fatalf("view balance: got %d", got)
	}
	if got := v.Balance(types.Address{3}); got != 400 {
		t.Fatalf("view recipient balance: got %d", got)
	}
	if got := v.GetStorage(types.Address{2}, types.Hash{0x01}); got != (types.Hash{0x22}) {
		t.Fatalf("view storage: got %x", got)
	}

	// ...while the base is untouched.
	if got := db.Balance(types.Address{1}); got != 1000 {
		t.Fatalf("base balance mutated: got %d", got)
	}
	if got := db.Balance(types.Address{3}); got != 0 {
		t.Fatalf("base recipient mutated: got %d", got)
	}
	if got := db.GetStorage(types.Address{2}, types.Hash{0x01}); got != (types.Hash{0x11}) {
		t.Fatalf("base storage mutated: got %x", got)
	}
	if db.Code(types.Address{4}) != nil {
		t.Fatal("base code mutated")
	}
	if got := db.Root(); got != preRoot {
		t.Fatal("base root changed under an uncommitted view")
	}

	if writes := v.Writes(); len(writes) != 4 {
		t.Fatalf("writes: got %v", writes)
	}
}

func TestViewSnapshotRevert(t *testing.T) {
	db := viewBase(t)
	v := NewRecordingView(db)

	v.SetNonce(types.Address{1}, 8)
	snap := v.Snapshot()
	if err := v.Debit(types.Address{1}, 300); err != nil {
		t.Fatal(err)
	}
	v.SetStorage(types.Address{2}, types.Hash{0x01}, types.Hash{0x99})
	v.SetStorage(types.Address{2}, types.Hash{0x05}, types.Hash{0x55})
	if err := v.Credit(types.Address{6}, 42); err != nil {
		t.Fatal(err)
	}

	if err := v.RevertToSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if got := v.Balance(types.Address{1}); got != 1000 {
		t.Fatalf("reverted balance: got %d", got)
	}
	if got := v.Nonce(types.Address{1}); got != 8 {
		t.Fatalf("pre-snapshot nonce lost: got %d", got)
	}
	if got := v.GetStorage(types.Address{2}, types.Hash{0x01}); got != (types.Hash{0x11}) {
		t.Fatalf("reverted storage: got %x", got)
	}
	if got := v.GetStorage(types.Address{2}, types.Hash{0x05}); !got.IsZero() {
		t.Fatalf("reverted new slot: got %x", got)
	}
	if got := v.Balance(types.Address{6}); got != 0 {
		t.Fatalf("reverted created account: got %d", got)
	}

	if err := v.RevertToSnapshot(99); !errors.Is(err, ErrBadSnapshot) {
		t.Fatalf("bad snapshot id: got %v", err)
	}

	// Reverted writes stay recorded: conflict detection must stay
	// conservative about accounts a transaction touched and rolled back.
	found := false
	for _, a := range v.Writes() {
		if a == (types.Address{6}) {
			found = true
		}
	}
	if !found {
		t.Fatal("reverted write dropped from the recorded write set")
	}
}

// TestViewCommitEquivalence pins the core parallel-executor invariant at
// the state layer: the same mutation sequence applied through a view plus
// CommitTo must produce the same root as applying it directly.
func TestViewCommitEquivalence(t *testing.T) {
	mutate := func(st interface {
		Transfer(from, to types.Address, value types.Amount) error
		SetNonce(addr types.Address, nonce uint64)
		SetCode(addr types.Address, code []byte)
		SetStorage(addr types.Address, key, value types.Hash)
	}) {
		_ = st.Transfer(types.Address{1}, types.Address{5}, 250)
		st.SetNonce(types.Address{1}, 8)
		st.SetCode(types.Address{5}, []byte{0x01, 0x02})
		st.SetStorage(types.Address{2}, types.Hash{0x01}, types.Hash{0x77}) // overwrite
		st.SetStorage(types.Address{2}, types.Hash{0x0F}, types.Hash{0x88}) // new slot
		st.SetStorage(types.Address{5}, types.Hash{0x01}, types.Hash{0x99}) // new account storage
	}

	direct := viewBase(t)
	mutate(direct)

	base := viewBase(t)
	v := NewRecordingView(base)
	mutate(v)
	v.CommitTo(base)

	if got, want := base.Root(), direct.Root(); got != want {
		t.Fatalf("committed root %x != direct root %x", got, want)
	}
}

// TestViewCommitStorageDelete covers the zero-hash delete path across the
// overlay boundary.
func TestViewCommitStorageDelete(t *testing.T) {
	direct := viewBase(t)
	direct.SetStorage(types.Address{2}, types.Hash{0x01}, types.Hash{})

	base := viewBase(t)
	v := NewRecordingView(base)
	v.SetStorage(types.Address{2}, types.Hash{0x01}, types.Hash{})
	if got := v.GetStorage(types.Address{2}, types.Hash{0x01}); !got.IsZero() {
		t.Fatalf("view still sees deleted slot: %x", got)
	}
	v.CommitTo(base)

	if got, want := base.Root(), direct.Root(); got != want {
		t.Fatalf("delete-commit root %x != direct root %x", got, want)
	}
	// Deleting from an account with no storage is a recorded write but a
	// state no-op, matching DB.SetStorage.
	v2 := NewRecordingView(base)
	v2.SetStorage(types.Address{9}, types.Hash{0x01}, types.Hash{})
	v2.CommitTo(base)
	if got := base.GetStorage(types.Address{9}, types.Hash{0x01}); !got.IsZero() {
		t.Fatalf("phantom slot appeared: %x", got)
	}
}

func TestViewTouches(t *testing.T) {
	db := viewBase(t)
	v := NewRecordingView(db)
	_ = v.Balance(types.Address{1})   // read {1}
	_ = v.Credit(types.Address{3}, 5) // write {3}
	other := map[types.Address]struct{}{{7}: {}}

	if v.Touches(nil) || v.Touches(map[types.Address]struct{}{}) {
		t.Fatal("empty set should not conflict")
	}
	if v.Touches(other) {
		t.Fatal("disjoint set should not conflict")
	}
	if !v.Touches(map[types.Address]struct{}{{1}: {}}) {
		t.Fatal("read-after-write conflict missed")
	}
	if !v.Touches(map[types.Address]struct{}{{3}: {}}) {
		t.Fatal("write-after-write conflict missed")
	}

	set := make(map[types.Address]struct{})
	v.AddWritesTo(set)
	if _, ok := set[types.Address{3}]; !ok || len(set) != 1 {
		t.Fatalf("AddWritesTo: got %v", set)
	}
}

// TestViewConcurrentSpeculation exercises the documented concurrency
// contract under -race: many views over one unmutated base, executing
// overlapping reads and disjoint writes in parallel.
func TestViewConcurrentSpeculation(t *testing.T) {
	db := viewBase(t)
	const n = 16
	done := make(chan *RecordingView, n)
	for i := 0; i < n; i++ {
		go func(i int) {
			v := NewRecordingView(db)
			_ = v.Balance(types.Address{1}) // shared hot read
			_ = v.GetStorage(types.Address{2}, types.Hash{0x01})
			_ = v.Credit(types.Address{10, byte(i)}, types.Amount(i+1))
			v.SetStorage(types.Address{10, byte(i)}, types.Hash{0x01}, types.Hash{byte(i + 1)})
			done <- v
		}(i)
	}
	views := make([]*RecordingView, 0, n)
	for i := 0; i < n; i++ {
		views = append(views, <-done)
	}
	for _, v := range views {
		v.CommitTo(db)
	}
	for i := 0; i < n; i++ {
		if got := db.Balance(types.Address{10, byte(i)}); got == 0 {
			t.Fatalf("worker %d write lost", i)
		}
	}
}

// Reads returns the recorded read set in deterministic address order.
func (v *RecordingView) Reads() []types.Address { return sortedAddrs(v.reads) }

// Writes returns the recorded write set in deterministic address order.
func (v *RecordingView) Writes() []types.Address { return sortedAddrs(v.writes) }

func sortedAddrs(set map[types.Address]struct{}) []types.Address {
	out := make([]types.Address, 0, len(set))
	for addr := range set {
		out = append(out, addr)
	}
	sort.Slice(out, func(i, j int) bool { return lessAddr(out[i], out[j]) })
	return out
}
