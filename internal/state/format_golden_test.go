package state

import (
	"errors"
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

// TestStateFormatGolden pins the root format and the SCS1 snapshot bytes.
// Both constants were regenerated on purpose with SnapshotVersion 2, when
// the account digest dropped its code hash, slot count and slot walk for
// the storage trie's own root; the snapshot bytes differ from version 1's
// only in the version byte. wantBlob moved once more, on purpose, with
// SnapshotVersion 3 (the contract's storage layout took in the
// reference): the bytes differ from version 2's only in the version byte,
// and the root did not move. Never regenerate them without bumping
// SnapshotVersion.
func TestStateFormatGolden(t *testing.T) {
	const (
		wantRoot = "0xdb70b56c905874c0ce081e9947d6f2cb76a9de0e49c936bf7350bbab1e8b9ef1"
		wantBlob = "0xfa9e24509c91e9802b6b962c0b7728e6b6d6a22cc3def73a74479d1469901e1d"
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

// TestVersion1SnapshotRefused: a version-1 blob lists the same records a
// version-3 one does, but its slots are keyed by the old contract layout
// and its header's root hashed every slot into the account digest; a
// version-2 blob's contract slots hold no report counts, severity tallies
// or SRA listing. Restore refuses both by version rather than rebuild a
// state the running contract would misread. Each blob here is a real one
// of its version: it hashes to the constant TestStateFormatGolden pinned
// at that version.
func TestVersion1SnapshotRefused(t *testing.T) {
	for version, want := range map[byte]string{
		1: "0x91b03fd82090c2accfc6c249614073bb613467fbaf39420390ce758203bc7190",
		2: "0xc19283e13dbeae8bccc4777c6761d1f8aa1450bf61a0e208ad290f2216fcc244",
	} {
		blob := goldenState(t).Serialize()
		blob[4] = version
		if got := types.HashBytes(blob).String(); got != want {
			t.Fatalf("version-%d blob hashes to %s, want %s", version, got, want)
		}
		if _, err := Restore(blob); !errors.Is(err, ErrSnapshotVersion) {
			t.Fatalf("version-%d snapshot: got %v, want ErrSnapshotVersion", version, err)
		}
	}
}
