package state

import (
	"bytes"
	"errors"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// populated builds a state with balances, nonces and storage across
// enough accounts to exercise sorting and the trie.
func populatedSnap(t *testing.T) *DB {
	t.Helper()
	db := New()
	for i := 0; i < 64; i++ {
		var addr types.Address
		addr[0] = byte(i * 7)
		addr[19] = byte(i)
		if err := db.Credit(addr, types.Amount(1000+i)); err != nil {
			t.Fatalf("credit: %v", err)
		}
		db.SetNonce(addr, uint64(i%5))
		for s := 0; s < i%4; s++ {
			var k, v types.Hash
			k[0], k[31] = byte(s), byte(i)
			v[0] = byte(s + 1)
			db.SetStorage(addr, k, v)
		}
	}
	db.DiscardSnapshots()
	return db
}

func TestSnapshotRoundTrip(t *testing.T) {
	db := populatedSnap(t)
	wantRoot := db.Root()

	blob := db.Serialize()
	got, err := Restore(blob)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	if root := got.Root(); root != wantRoot {
		t.Fatalf("restored root %s, want %s", root, wantRoot)
	}

	// Logical equality beyond the root: every account field survives.
	for _, addr := range db.Accounts() {
		if got.Balance(addr) != db.Balance(addr) {
			t.Errorf("balance mismatch at %s", addr)
		}
		if got.Nonce(addr) != db.Nonce(addr) {
			t.Errorf("nonce mismatch at %s", addr)
		}
	}

	// Determinism: same logical state, byte-identical snapshot — even via
	// an independent copy whose maps iterate in a different order.
	cp := db.Copy()
	if !bytes.Equal(cp.Serialize(), blob) {
		t.Fatal("serialization is not deterministic across copies")
	}
}

func TestSnapshotRestoredStateIsUsable(t *testing.T) {
	db := populatedSnap(t)
	blob := db.Serialize()
	got, err := Restore(blob)
	if err != nil {
		t.Fatalf("Restore: %v", err)
	}
	got.Root()
	addrs := got.Accounts()
	a, b := addrs[0], addrs[1]
	if err := got.Transfer(a, b, 1); err != nil {
		t.Fatalf("transfer on restored state: %v", err)
	}
	if got.Root() == db.Root() {
		t.Fatal("mutation did not change restored root")
	}
}

func TestSnapshotEmptyState(t *testing.T) {
	db := New()
	got, err := Restore(db.Serialize())
	if err != nil {
		t.Fatalf("Restore empty: %v", err)
	}
	if got.Root() != db.Root() {
		t.Fatal("empty-state root mismatch")
	}
}

func TestSnapshotRejectsCorruption(t *testing.T) {
	db := populatedSnap(t)
	blob := db.Serialize()

	cases := map[string][]byte{
		"empty":        {},
		"bad magic":    append([]byte("XXXX"), blob[4:]...),
		"bad version":  append(append([]byte{}, blob[:4]...), append([]byte{9}, blob[5:]...)...),
		"truncated":    blob[:len(blob)/2],
		"trailing":     append(append([]byte{}, blob...), 0xff),
		"count beyond": func() []byte { b := append([]byte{}, blob...); b[5] = 0xff; return b }(),
		// The first record's codeLen (after the 13-byte header and
		// addr, balance, nonce) declares two bytes of code, which follow:
		// well formed, but no account holds code.
		"account with code": func() []byte {
			b := append(append([]byte{}, blob[:49]...), 0, 0, 0, 2, 0x60, 0x00)
			return append(b, blob[53:]...)
		}(),
	}
	for name, b := range cases {
		if _, err := Restore(b); err == nil {
			t.Errorf("%s: corruption accepted", name)
		}
	}
	if _, err := Restore(cases["account with code"]); !errors.Is(err, errSnapshotCode) {
		t.Errorf("account with code: got %v, want errSnapshotCode", err)
	}

	// A flipped content byte must change the recomputed root (the chain
	// rejects the snapshot when it disagrees with the header root), or be
	// rejected outright by the codec's ordering checks.
	flip := append([]byte{}, blob...)
	flip[20] ^= 0x01
	if got, err := Restore(flip); err == nil && got.Root() == db.Root() {
		t.Fatal("tampered snapshot produced the original root")
	}
}

func TestSnapshotRejectsUnsortedAccounts(t *testing.T) {
	db := New()
	var a, b types.Address
	a[0], b[0] = 2, 1 // serialize sorts; swap the records manually below
	if err := db.Credit(a, 5); err != nil {
		t.Fatal(err)
	}
	if err := db.Credit(b, 5); err != nil {
		t.Fatal(err)
	}
	blob := db.Serialize()
	// Each record is fixed-size here (no code, no storage): 20+8+8+4+4.
	rec := 44
	hdr := 13
	swapped := append([]byte{}, blob[:hdr]...)
	swapped = append(swapped, blob[hdr+rec:hdr+2*rec]...)
	swapped = append(swapped, blob[hdr:hdr+rec]...)
	if _, err := Restore(swapped); !errors.Is(err, ErrSnapshotOrder) {
		t.Fatalf("unsorted accounts: got %v, want ErrSnapshotOrder", err)
	}
}
