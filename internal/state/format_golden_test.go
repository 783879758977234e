package state

import (
	"math/rand"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// goldenState builds, through the exported mutators only, a seeded state
// that visits every shape the root and snapshot formats distinguish:
// plain accounts, a contract with well over 100 slots of which some are
// overwritten and some deleted, an account emptied back to nothing, and
// a burst of writes undone by RevertToSnapshot.
func goldenState(t *testing.T) *DB {
	t.Helper()
	rng := rand.New(rand.NewSource(19))
	randHash := func() (h types.Hash) {
		rng.Read(h[:])
		return h
	}
	db := New()
	plain := make([]types.Address, 40)
	for i := range plain {
		h := randHash()
		copy(plain[i][:], h[:])
		if err := db.Credit(plain[i], types.Amount(1+rng.Intn(1_000_000))); err != nil {
			t.Fatal(err)
		}
		db.SetNonce(plain[i], uint64(rng.Intn(9)))
	}

	contract := plain[7]
	slots := make([]types.Hash, 160)
	for i := range slots {
		slots[i] = randHash()
		db.SetStorage(contract, slots[i], randHash())
	}
	for i := 0; i < 30; i++ {
		db.SetStorage(contract, slots[i], randHash())
	}
	for i := 30; i < 50; i++ {
		db.SetStorage(contract, slots[i], types.Hash{})
	}
	_ = db.Root() // the root is taken mid-history, as the chain does per block

	ghost := plain[11]
	db.SetStorage(ghost, slots[0], randHash())
	db.SetStorage(ghost, slots[0], types.Hash{})
	db.SetNonce(ghost, 0)
	if err := db.Debit(ghost, db.Balance(ghost)); err != nil {
		t.Fatal(err)
	}

	snap := db.Snapshot()
	for i := 0; i < 25; i++ {
		_ = db.Transfer(plain[i], plain[39-i], 17)
		db.SetStorage(contract, slots[60+i], types.Hash{})
		db.SetStorage(plain[i], randHash(), randHash())
	}
	if err := db.RevertToSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	db.DiscardSnapshots()
	return db
}

// TestStateFormatGolden pins the root format and the SCS1 snapshot bytes:
// both constants were captured at 2e17feb, the last commit whose accounts
// could hold code, on this same code-free input, so a match proves that
// dropping the code field moved no byte of consensus or snapshot output.
// (The inputs before it, which also wrote code, were pinned at the last
// commit that kept accounts in a map under an undo journal.) Never
// regenerate them without bumping SnapshotVersion and the root format
// together.
func TestStateFormatGolden(t *testing.T) {
	const (
		wantRoot = "0xbf60ef4880ae71bb3d34e5f18a318217c449e22f2104b346c1451c2151e72210"
		wantBlob = "0x91b03fd82090c2accfc6c249614073bb613467fbaf39420390ce758203bc7190"
	)
	db := goldenState(t)
	if got := db.Root().String(); got != wantRoot {
		t.Errorf("Root() = %s, want %s", got, wantRoot)
	}
	blob := db.Serialize()
	if got := types.HashBytes(blob).String(); got != wantBlob {
		t.Errorf("keccak(Serialize()) = %s (%d bytes), want %s", got, len(blob), wantBlob)
	}
	restored, err := Restore(blob)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.Root().String(); got != wantRoot {
		t.Errorf("restored Root() = %s, want %s", got, wantRoot)
	}
}
