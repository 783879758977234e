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

// txEdits writes each hashed field of a transaction; every field is
// signed, so each one also breaks the signature.
var txEdits = []struct {
	name string
	edit func(*Transaction)
}{
	{"nonce", func(tx *Transaction) { tx.Nonce++ }},
	{"to", func(tx *Transaction) { tx.To[0] ^= 0xFF }},
	{"value", func(tx *Transaction) { tx.Value++ }},
	{"gasLimit", func(tx *Transaction) { tx.GasLimit++ }},
	{"gasPrice", func(tx *Transaction) { tx.GasPrice++ }},
	{"data in place", func(tx *Transaction) { tx.Data[0] ^= 0xFF }},
	{"data reslice", func(tx *Transaction) { tx.Data = append(tx.Data, 9) }},
	{"signature", func(tx *Transaction) { tx.Sig.S[31] ^= 1 }},
	{"from", func(tx *Transaction) { tx.From[0] ^= 0xFF }},
}

// TestSignTxStoresTheMemoOfWhatItSigned: SignTx is a transaction's last
// write, and the memo it leaves is the signed value's — even when
// something hashed the open transaction before it was signed.
func TestSignTxStoresTheMemoOfWhatItSigned(t *testing.T) {
	w := wallet.NewDeterministic("memo")
	tx := &Transaction{Kind: TxTransfer, Nonce: 7, To: Address{0xAA}, Value: 1234, GasLimit: 21_000, GasPrice: 50}
	unsigned := tx.Hash()
	if err := SignTx(tx, w); err != nil {
		t.Fatal(err)
	}
	enc := EncodeTx(tx)
	if got, want := tx.Hash(), HashBytes(enc); got == unsigned || got != want {
		t.Errorf("Hash() after SignTx = %s, want %s", got.Short(), want.Short())
	}
	decoded, err := DecodeTx(enc)
	if err != nil {
		t.Fatal(err)
	}
	if tx.loadMemo().sigHash != decoded.loadMemo().sigHash {
		t.Error("signing digest after SignTx differs from the decoded transaction's")
	}
	if from, err := tx.Sender(); from != w.Address() || err != nil {
		t.Errorf("Sender() = %s, %v, want %s", from, err, w.Address())
	}
}

// TestEditedTxGetsItsOwnMemo: an edited copy of a hashed transaction is
// hashed and recovered afresh, and the original keeps its digests and
// sender.
func TestEditedTxGetsItsOwnMemo(t *testing.T) {
	tx := memoTx(t)
	h, s := tx.Hash(), tx.loadMemo().sigHash
	signer, err := tx.Sender()
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range txEdits {
		misses := mSenderCacheMiss.Value()
		edited := Edited(tx, e.edit)
		if edited.Hash() == h || edited.Hash() != HashBytes(EncodeTx(edited)) {
			t.Errorf("%s: edited copy's Hash() is not its own", e.name)
		}
		if addr, err := edited.Sender(); err == nil {
			t.Errorf("%s: edited copy's Sender() = %s, nil", e.name, addr)
		}
		if got := mSenderCacheMiss.Value() - misses; got != 1 {
			t.Errorf("%s: %d recoveries for the edited copy, want 1", e.name, got)
		}
		if tx.Hash() != h || tx.loadMemo().sigHash != s {
			t.Errorf("%s: editing a copy moved the original's digests", e.name)
		}
		if addr, err := tx.Sender(); addr != signer || err != nil {
			t.Errorf("%s: original Sender() = %s, %v, want %s", e.name, addr, err, signer)
		}
	}
}

// TestTxSigHashMemoCoversDataButNotSignature: the signing digest covers
// every field but the signature: two signers of one content sign
// different digests (From is signed), the same signer reproduces both
// digests, and Data is signed.
func TestTxSigHashMemoCoversDataButNotSignature(t *testing.T) {
	tx := memoTx(t)
	s1, h1 := tx.loadMemo().sigHash, tx.Hash()
	resign := func(w *wallet.Wallet, edit func(*Transaction)) *Transaction {
		c := Edited(tx, edit)
		if err := SignTx(c, w); err != nil {
			t.Fatal(err)
		}
		return c
	}
	noEdit := func(*Transaction) {}
	if other := resign(wallet.NewDeterministic("other"), noEdit); other.loadMemo().sigHash == s1 || other.Hash() == h1 {
		t.Error("another signer's transaction has the original's digests")
	}
	if same := resign(wallet.NewDeterministic("memo"), noEdit); same.loadMemo().sigHash != s1 || same.Hash() != h1 {
		t.Error("re-signing with the original key did not reproduce the digests")
	}
	if data := resign(wallet.NewDeterministic("memo"), func(c *Transaction) { c.Data[1] ^= 0xFF }); data.loadMemo().sigHash == s1 {
		t.Error("the signing digest does not cover Data")
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
// transaction with its memo, and nothing after — not its digests, not the
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
		sink = tx.loadMemo().sigHash
		from, _ = tx.Sender()
	}); n != 1 {
		t.Errorf("DecodeTx of a transfer, then its digests and Sender: %.0f allocations, want 1", n)
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
		"sigHash": func() { sink = tx.loadMemo().sigHash },
		"Sender":  func() { from, _ = tx.Sender() },
	} {
		if n := testing.AllocsPerRun(50, f); n != 0 {
			t.Errorf("%s on a decoded, recovered transfer: %.0f allocations, want 0", name, n)
		}
	}
	_, _ = sink, from
}

// TestBlockIDIsMemoizedPerBlock: a block's ID is its header's hash, asked
// for again at no cost, and a header sealed from it goes into a new block
// with its own ID while the built one keeps its.
func TestBlockIDIsMemoizedPerBlock(t *testing.T) {
	built := &Block{Header: Header{Number: 3, Time: 99, Difficulty: 1000}}
	id := built.ID()
	if id != built.Header.ID() || built.ID() != id {
		t.Fatal("memoized block ID differs from the header hash")
	}
	for nonce := uint64(1); nonce <= 5; nonce++ {
		hdr := built.Header // a sealer grinds on a header value
		hdr.Nonce = nonce
		sealed := &Block{Header: hdr, Txs: built.Txs}
		if got, want := sealed.ID(), hdr.ID(); got != want || got == id {
			t.Fatalf("nonce %d: sealed block ID %s, header hash %s", nonce, got.Short(), want.Short())
		}
	}
	if built.ID() != id || built.Header.Nonce != 0 {
		t.Error("sealing moved the built block")
	}
}

// TestWriteAfterHashPanicsUnderMemoGuard: built with the memoguard tag,
// a transaction or block written after it was hashed panics at its next
// digest instead of serving a stale memo, and one that was not written
// serves its digests as before.
func TestWriteAfterHashPanicsUnderMemoGuard(t *testing.T) {
	if !memoGuard {
		t.Skip("the memo guards are compiled in by the memoguard build tag")
	}
	for _, e := range txEdits {
		for name, read := range map[string]func(*Transaction){
			"Hash":   func(tx *Transaction) { tx.Hash() },
			"Sender": func(tx *Transaction) { _, _ = tx.Sender() },
		} {
			tx := memoTx(t)
			if panics(func() { read(tx) }) {
				t.Fatalf("%s of an untouched transaction panicked", name)
			}
			e.edit(tx)
			if !panics(func() { read(tx) }) {
				t.Errorf("%s after writing %s: no panic", name, e.name)
			}
		}
	}
	decoded, err := DecodeTx(EncodeTx(memoTx(t)))
	if err != nil {
		t.Fatal(err)
	}
	decoded.Nonce++ // the decoder's memo is guarded too
	if !panics(func() { decoded.Hash() }) {
		t.Error("Hash after writing a decoded transaction: no panic")
	}

	blk := &Block{Header: Header{Number: 3, Time: 99, Difficulty: 1000}}
	blk.ID()
	if panics(func() { blk.ID() }) {
		t.Fatal("ID of an untouched block panicked")
	}
	blk.Header.Nonce++
	if !panics(func() { blk.ID() }) {
		t.Error("ID after writing the header: no panic")
	}
}

// panics reports whether f panics.
func panics(f func()) (did bool) {
	defer func() { did = recover() != nil }()
	f()
	return false
}
