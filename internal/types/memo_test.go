package types

import (
	"sync"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// memoTx builds a signed transfer for the memoization tests.
func memoTx(t *testing.T) *Transaction {
	t.Helper()
	w := wallet.NewDeterministic("memo")
	tx := &Transaction{
		Kind:     TxTransfer,
		Nonce:    7,
		To:       Address{0xAA},
		Value:    1234,
		GasLimit: 21_000,
		GasPrice: 50,
		Data:     []byte{1, 2, 3},
	}
	if err := SignTx(tx, w); err != nil {
		t.Fatal(err)
	}
	return tx
}

func TestTxHashMemoStableAndInvalidatedByMutation(t *testing.T) {
	tx := memoTx(t)
	h1 := tx.Hash()
	if tx.Hash() != h1 {
		t.Fatal("repeated Hash() differs on unchanged tx")
	}
	signer, err := tx.Sender()
	if err != nil {
		t.Fatal(err)
	}

	// Every hashed field must invalidate the memo when mutated — and
	// restore the original digest when mutated back.
	mutations := []struct {
		name         string
		mutate, undo func()
	}{
		{"nonce", func() { tx.Nonce++ }, func() { tx.Nonce-- }},
		{"to", func() { tx.To[0] ^= 0xFF }, func() { tx.To[0] ^= 0xFF }},
		{"value", func() { tx.Value++ }, func() { tx.Value-- }},
		{"gasLimit", func() { tx.GasLimit++ }, func() { tx.GasLimit-- }},
		{"gasPrice", func() { tx.GasPrice++ }, func() { tx.GasPrice-- }},
		{"data in place", func() { tx.Data[0] ^= 0xFF }, func() { tx.Data[0] ^= 0xFF }},
		{"data reslice", func() { tx.Data = append(tx.Data, 9) }, func() { tx.Data = tx.Data[:3] }},
		{"signature after Sender()", func() { tx.Sig.S[31] ^= 1 }, func() { tx.Sig.S[31] ^= 1 }},
		{"from after Sender()", func() { tx.From[0] ^= 0xFF }, func() { tx.From[0] ^= 0xFF }},
	}
	// Every field is signed, so a mutation also breaks the signature: the
	// sender is recovered again — never served from the memo — and fails.
	for _, m := range mutations {
		misses := mSenderCacheMiss.Value()
		m.mutate()
		if tx.Hash() == h1 {
			t.Errorf("%s: Hash() served stale memo after mutation", m.name)
		}
		if addr, err := tx.Sender(); err == nil {
			t.Errorf("%s: Sender() = %s, nil after mutation", m.name, addr)
		}
		m.undo()
		if tx.Hash() != h1 {
			t.Errorf("%s: Hash() did not recover original digest after undo", m.name)
		}
		if addr, err := tx.Sender(); addr != signer || err != nil {
			t.Errorf("%s: Sender() = %s, %v after undo, want %s", m.name, addr, err, signer)
		}
		if got := mSenderCacheMiss.Value() - misses; got != 2 {
			t.Errorf("%s: %d recoveries across mutate and undo, want 2", m.name, got)
		}
	}
}

// TestSenderRecoveredOncePerMemo: concurrent Sender() calls on one
// transaction share a single recovery.
func TestSenderRecoveredOncePerMemo(t *testing.T) {
	tx, err := DecodeTx(EncodeTx(memoTx(t)))
	if err != nil {
		t.Fatal(err)
	}
	want := tx.From
	misses := mSenderCacheMiss.Value()
	var wg sync.WaitGroup
	for range 8 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if addr, err := tx.Sender(); addr != want || err != nil {
				t.Errorf("Sender() = %s, %v, want %s", addr, err, want)
			}
		}()
	}
	wg.Wait()
	if got := mSenderCacheMiss.Value() - misses; got != 1 {
		t.Errorf("8 concurrent Sender() calls recovered %d times, want 1", got)
	}
}

// TestDecodedTransferAllocations pins what a decoded transfer costs: the
// transaction and its memo, and nothing after — not its digests, not the
// first recovery, not a sender served from the memo.
func TestDecodedTransferAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random, so the pool's reuse is not countable")
	}
	enc := EncodeTx(goldenTxs(t)["transfer"])
	var tx *Transaction
	var sink Hash
	var from Address
	if n := testing.AllocsPerRun(20, func() {
		tx, _ = DecodeTx(enc)
		sink = tx.Hash()
		sink = tx.SigHash()
		from, _ = tx.Sender()
	}); n != 2 {
		t.Errorf("DecodeTx of a transfer, then Hash, SigHash and Sender: %.0f allocations, want 2", n)
	}

	const runs = 20
	fresh := make([]*Transaction, runs+1) // AllocsPerRun adds a warm-up call
	for i := range fresh {
		fresh[i], _ = DecodeTx(enc)
	}
	next := 0
	if n := testing.AllocsPerRun(runs, func() {
		from, _ = fresh[next].Sender()
		next++
	}); n != 0 {
		t.Errorf("first Sender() on a decoded transfer: %.0f allocations, want 0", n)
	}

	for name, f := range map[string]func(){
		"Hash":    func() { sink = tx.Hash() },
		"SigHash": func() { sink = tx.SigHash() },
		"Sender":  func() { from, _ = tx.Sender() },
	} {
		if n := testing.AllocsPerRun(50, f); n != 0 {
			t.Errorf("%s on a decoded, recovered transfer: %.0f allocations, want 0", name, n)
		}
	}
	_, _ = sink, from
}

func TestTxSigHashMemoCoversDataButNotSignature(t *testing.T) {
	tx := memoTx(t)
	s1 := tx.SigHash()
	h1 := tx.Hash()

	// Re-signing changes Hash (signature is hashed) but not SigHash.
	if err := SignTx(tx, wallet.NewDeterministic("other")); err != nil {
		t.Fatal(err)
	}
	if tx.SigHash() == s1 {
		t.Error("SigHash unchanged although From changed with the new signer")
	}
	if tx.Hash() == h1 {
		t.Error("Hash unchanged after re-signing")
	}

	// Same content signed by the original key must reproduce both digests.
	if err := SignTx(tx, wallet.NewDeterministic("memo")); err != nil {
		t.Fatal(err)
	}
	if tx.SigHash() != s1 || tx.Hash() != h1 {
		t.Error("digests not restored after re-signing with the original key")
	}

	// In-place Data tampering flips SigHash too.
	tx.Data[1] ^= 0xFF
	if tx.SigHash() == s1 {
		t.Error("SigHash served stale memo after Data tampering")
	}
}

func TestBlockIDMemoFollowsHeaderMutation(t *testing.T) {
	blk := &Block{Header: Header{Number: 3, Time: 99, Difficulty: 1000}}
	id1 := blk.ID()
	if id1 != blk.Header.ID() {
		t.Fatal("memoized block ID differs from header hash")
	}
	if blk.ID() != id1 {
		t.Fatal("repeated ID() differs on unchanged header")
	}

	// A sealer grinding the nonce mutates the header in place: the memo
	// must never serve the pre-mutation hash.
	for nonce := uint64(1); nonce <= 5; nonce++ {
		blk.Header.Nonce = nonce
		if got, want := blk.ID(), blk.Header.ID(); got != want {
			t.Fatalf("nonce %d: memoized ID %s, header hash %s", nonce, got.Short(), want.Short())
		}
	}
	blk.Header.Nonce = 0
	if blk.ID() != id1 {
		t.Error("ID not restored after reverting the header")
	}
}
