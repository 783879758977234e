package types

import (
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// coldCopies round-trips transactions through the wire encoding so every
// copy has cold hash/sender caches, like gossip off the network.
func coldCopies(t *testing.T, txs []*Transaction) []*Transaction {
	t.Helper()
	out := make([]*Transaction, len(txs))
	for i, tx := range txs {
		c, err := DecodeTx(EncodeTx(tx))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = c
	}
	return out
}

func TestRecoverSendersWarmsEveryTx(t *testing.T) {
	alice := wallet.NewDeterministic("cacher-alice")
	bob := wallet.NewDeterministic("cacher-bob")
	var txs []*Transaction
	for i := 0; i < 37; i++ { // odd count: exercises uneven stripes
		w := alice
		if i%2 == 1 {
			w = bob
		}
		txs = append(txs, signedTransfer(t, w, Address{9}, Amount(i+1), uint64(i)))
	}
	cold := coldCopies(t, txs)

	RecoverSenders(cold)
	for i, tx := range cold {
		from, err := tx.Sender()
		if err != nil {
			t.Fatalf("tx %d: %v", i, err)
		}
		want := alice.Address()
		if i%2 == 1 {
			want = bob.Address()
		}
		if from != want {
			t.Fatalf("tx %d: sender %v, want %v", i, from, want)
		}
	}
}

func TestRecoverSendersMemoizesFailures(t *testing.T) {
	alice := wallet.NewDeterministic("cacher-alice")
	txs := coldCopies(t, []*Transaction{signedTransfer(t, alice, Address{9}, 1, 0)})
	txs[0].Value = 999 // break the signature before recovery

	// RecoverSenders itself never fails — it is safe on unvalidated
	// gossip — but the failure must surface from the usual entry points.
	RecoverSenders(txs)
	if _, err := txs[0].Sender(); err == nil {
		t.Fatal("tampered tx recovered a sender")
	}
	if err := txs[0].ValidateBasic(); err == nil {
		t.Fatal("tampered tx passed ValidateBasic")
	}
}

func TestRecoverAndPrefetchDegenerateInputs(t *testing.T) {
	RecoverSenders(nil)
	RecoverSenders([]*Transaction{})
}
