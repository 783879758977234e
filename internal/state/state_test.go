package state

import (
	"bytes"
	"errors"
	"math"
	"sort"
	"testing"
	"testing/quick"

	"github.com/smartcrowd/smartcrowd/internal/critbit"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

func addr(label string) types.Address {
	return wallet.NewDeterministic(label).Address()
}

func TestCreditDebitTransfer(t *testing.T) {
	db := New()
	a, b := addr("a"), addr("b")
	if err := db.Credit(a, 100); err != nil {
		t.Fatal(err)
	}
	if err := db.Transfer(a, b, 40); err != nil {
		t.Fatal(err)
	}
	if db.Balance(a) != 60 || db.Balance(b) != 40 {
		t.Errorf("balances = %d, %d; want 60, 40", db.Balance(a), db.Balance(b))
	}
	if err := db.Debit(b, 40); err != nil {
		t.Fatal(err)
	}
	if db.Balance(b) != 0 {
		t.Errorf("b balance = %d, want 0", db.Balance(b))
	}
}

func TestDebitInsufficient(t *testing.T) {
	db := New()
	a := addr("a")
	_ = db.Credit(a, 10)
	if err := db.Debit(a, 11); !errors.Is(err, ErrInsufficientBalance) {
		t.Errorf("err = %v, want ErrInsufficientBalance", err)
	}
	if db.Balance(a) != 10 {
		t.Error("failed debit mutated balance")
	}
}

func TestTransferInsufficientLeavesStateIntact(t *testing.T) {
	db := New()
	a, b := addr("a"), addr("b")
	_ = db.Credit(a, 5)
	if err := db.Transfer(a, b, 6); err == nil {
		t.Fatal("transfer exceeding balance succeeded")
	}
	if db.Balance(a) != 5 || db.Balance(b) != 0 {
		t.Error("failed transfer mutated balances")
	}
}

func TestCreditOverflow(t *testing.T) {
	db := New()
	a := addr("a")
	_ = db.Credit(a, math.MaxUint64)
	if err := db.Credit(a, 1); !errors.Is(err, ErrBalanceOverflow) {
		t.Errorf("err = %v, want ErrBalanceOverflow", err)
	}
}

func TestNonceLifecycle(t *testing.T) {
	db := New()
	a := addr("a")
	if db.Nonce(a) != 0 {
		t.Error("fresh account nonce != 0")
	}
	db.SetNonce(a, 5)
	if db.Nonce(a) != 5 {
		t.Error("SetNonce lost")
	}
}

func TestStorageLifecycle(t *testing.T) {
	db := New()
	c := addr("contract")
	k := types.HashBytes([]byte("slot"))
	v := types.HashBytes([]byte("value"))
	if got := db.GetStorage(c, k); !got.IsZero() {
		t.Error("fresh slot not zero")
	}
	db.SetStorage(c, k, v)
	if db.GetStorage(c, k) != v {
		t.Error("storage write lost")
	}
	db.SetStorage(c, k, types.Hash{})
	if !db.GetStorage(c, k).IsZero() {
		t.Error("zero write did not clear slot")
	}
	if db.Exists(c) {
		t.Error("account with deleted slot should be empty")
	}
}

func TestSnapshotRevert(t *testing.T) {
	db := New()
	a, b := addr("a"), addr("b")
	_ = db.Credit(a, 100)

	snap := db.Snapshot()
	_ = db.Transfer(a, b, 30)
	db.SetNonce(a, 7)
	db.SetStorage(b, types.HashBytes([]byte("k")), types.HashBytes([]byte("v")))

	if err := db.RevertToSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	if db.Balance(a) != 100 || db.Balance(b) != 0 {
		t.Error("revert did not restore balances")
	}
	if db.Nonce(a) != 0 {
		t.Error("revert did not restore nonce")
	}
	if !db.GetStorage(b, types.HashBytes([]byte("k"))).IsZero() {
		t.Error("revert did not restore storage")
	}
	if db.Exists(b) {
		t.Error("revert did not delete the created account")
	}
}

func TestNestedSnapshots(t *testing.T) {
	db := New()
	a := addr("a")
	_ = db.Credit(a, 10)
	s1 := db.Snapshot()
	_ = db.Credit(a, 10) // 20
	s2 := db.Snapshot()
	_ = db.Credit(a, 10) // 30
	if err := db.RevertToSnapshot(s2); err != nil {
		t.Fatal(err)
	}
	if db.Balance(a) != 20 {
		t.Errorf("after inner revert balance = %d, want 20", db.Balance(a))
	}
	if err := db.RevertToSnapshot(s1); err != nil {
		t.Fatal(err)
	}
	if db.Balance(a) != 10 {
		t.Errorf("after outer revert balance = %d, want 10", db.Balance(a))
	}
}

func TestRevertInvalidSnapshot(t *testing.T) {
	db := New()
	if err := db.RevertToSnapshot(0); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("err = %v, want ErrBadSnapshot", err)
	}
	s := db.Snapshot()
	if err := db.RevertToSnapshot(s); err != nil {
		t.Fatal(err)
	}
	// s is now consumed.
	if err := db.RevertToSnapshot(s); !errors.Is(err, ErrBadSnapshot) {
		t.Errorf("double revert: err = %v, want ErrBadSnapshot", err)
	}
}

func TestDiscardSnapshotsCommits(t *testing.T) {
	db := New()
	a := addr("a")
	_ = db.Credit(a, 5)
	_ = db.Snapshot()
	_ = db.Credit(a, 5)
	db.DiscardSnapshots()
	if db.Balance(a) != 10 {
		t.Error("DiscardSnapshots lost committed state")
	}
	if err := db.RevertToSnapshot(0); !errors.Is(err, ErrBadSnapshot) {
		t.Error("snapshot survived DiscardSnapshots")
	}
}

func TestCopyIsolation(t *testing.T) {
	db := New()
	a := addr("a")
	_ = db.Credit(a, 100)
	db.SetStorage(a, types.HashBytes([]byte("k")), types.HashBytes([]byte("v")))

	cp := db.Copy()
	_ = cp.Debit(a, 50)
	cp.SetStorage(a, types.HashBytes([]byte("k")), types.HashBytes([]byte("other")))

	if db.Balance(a) != 100 {
		t.Error("copy mutation leaked into original balance")
	}
	if db.GetStorage(a, types.HashBytes([]byte("k"))) != types.HashBytes([]byte("v")) {
		t.Error("copy mutation leaked into original storage")
	}
}

func TestRootDeterministicAndSensitive(t *testing.T) {
	build := func(bal types.Amount) *DB {
		db := New()
		_ = db.Credit(addr("a"), bal)
		_ = db.Credit(addr("b"), 7)
		db.SetStorage(addr("c"), types.HashBytes([]byte("k")), types.HashBytes([]byte("v")))
		return db
	}
	r1, r2 := build(5).Root(), build(5).Root()
	if r1 != r2 {
		t.Error("identical states have different roots")
	}
	if build(6).Root() == r1 {
		t.Error("balance change did not change root")
	}
}

func TestRootIgnoresEmptyAccounts(t *testing.T) {
	db := New()
	_ = db.Credit(addr("a"), 5)
	base := db.Root()
	// Touch an account without giving it state.
	_ = db.Credit(addr("ghost"), 0)
	if db.Root() != base {
		t.Error("empty account changed the root")
	}
}

func TestRootMatchesAfterRevert(t *testing.T) {
	db := New()
	_ = db.Credit(addr("a"), 50)
	before := db.Root()
	s := db.Snapshot()
	_ = db.Transfer(addr("a"), addr("b"), 25)
	db.SetStorage(addr("c"), types.HashBytes([]byte("k")), types.HashBytes([]byte("v")))
	if err := db.RevertToSnapshot(s); err != nil {
		t.Fatal(err)
	}
	if db.Root() != before {
		t.Error("root differs after revert")
	}
}

// Property: a random sequence of credits and debits conserves total supply.
func TestSupplyConservation(t *testing.T) {
	f := func(ops []uint16) bool {
		db := New()
		accounts := []types.Address{addr("a"), addr("b"), addr("c"), addr("d")}
		for _, acc := range accounts {
			_ = db.Credit(acc, 1000)
		}
		for _, op := range ops {
			from := accounts[int(op)%len(accounts)]
			to := accounts[int(op>>4)%len(accounts)]
			amount := types.Amount(op % 97)
			_ = db.Transfer(from, to, amount) // may fail; fine
		}
		var total types.Amount
		for _, acc := range accounts {
			total += db.Balance(acc)
		}
		return total == 4000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func BenchmarkTransfer(b *testing.B) {
	db := New()
	a1, a2 := addr("a"), addr("b")
	_ = db.Credit(a1, types.Amount(b.N)+1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := db.Transfer(a1, a2, 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkRoot100Accounts(b *testing.B) {
	db := New()
	for i := 0; i < 100; i++ {
		_ = db.Credit(addr(string(rune(i))), types.Amount(i+1))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		db.Root()
	}
}

// Exists reports whether addr has any state.
func (db *DB) Exists(addr types.Address) bool {
	_, ok := critbit.Get(db.root, trieKey(addr))
	return ok
}

// Accounts returns all non-empty addresses in ascending order. It sorts
// rather than trusting the trie's walk order, because referenceRoot is
// built on it.
func (db *DB) Accounts() []types.Address {
	var out []types.Address
	critbit.Walk(db.root, func(k critbit.Key, _ account) {
		out = append(out, types.Address(k[:wallet.AddressSize]))
	})
	sort.Slice(out, func(i, j int) bool { return bytes.Compare(out[i][:], out[j][:]) < 0 })
	return out
}
