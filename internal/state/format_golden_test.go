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
	db.SetCode(contract, []byte{0x60, 0x01, 0x60, 0x02, 0x01, 0x00})
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
	db.SetCode(ghost, []byte{0xFE})
	db.SetStorage(ghost, slots[0], types.Hash{})
	db.SetCode(ghost, nil)
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
	db.SetCode(contract, []byte{0xBA, 0xD0})
	if err := db.RevertToSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	db.DiscardSnapshots()
	return db
}

// TestStateFormatGolden pins the root format and the SCS1 snapshot bytes:
// both constants were captured at the last commit that kept accounts in a
// map under an undo journal, so a match proves the persistent-trie state
// moved no byte of consensus or snapshot output. Never regenerate them
// without bumping SnapshotVersion and the root format together.
func TestStateFormatGolden(t *testing.T) {
	const (
		wantRoot = "0x94cab3d188dace5f190e39b41ed62f2da73a572e73afb75439e0c2d043638483"
		wantBlob = "0xa7052df285b1c878c95a7766f64448d436c2c4be8cd325912bcd4ac95ccc9539"
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
