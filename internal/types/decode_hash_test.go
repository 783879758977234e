package types

import "testing"

// TestHashAfterDecodeAllocatesNothing: the decoder has just read the bytes
// Hash() is the digest of, so asking a decoded transaction — alone or
// inside a block — for its Hash costs the memo's field compare, not an
// EncodeTx of the object back into a fresh buffer.
func TestHashAfterDecodeAllocatesNothing(t *testing.T) {
	txs := goldenTxs(t)
	var sink Hash
	var kept any // keeps a decoded object reachable, as Hash() does
	for name, tx := range txs {
		enc := EncodeTx(tx)
		decode := testing.AllocsPerRun(50, func() {
			kept, _ = DecodeTx(enc)
		})
		decodeAndHash := testing.AllocsPerRun(50, func() {
			got, _ := DecodeTx(enc)
			sink = got.Hash()
		})
		if decodeAndHash != decode {
			t.Errorf("%s: decode costs %.0f allocations, decode then Hash() %.0f", name, decode, decodeAndHash)
		}
		if got, _ := DecodeTx(enc); got.Hash() != tx.Hash() {
			t.Errorf("%s: decoded hash differs from the signed object's", name)
		}
	}

	three := []*Transaction{txs["transfer"], txs["sra"], txs["initial-report"]}
	enc := EncodeBlock(&Block{Header: Header{Number: 1, TxRoot: ComputeTxRoot(three)}, Txs: three})
	decode := testing.AllocsPerRun(50, func() {
		kept, _ = DecodeBlock(enc)
	})
	decodeAndHash := testing.AllocsPerRun(50, func() {
		blk, _ := DecodeBlock(enc)
		for _, tx := range blk.Txs {
			sink = tx.Hash()
		}
	})
	if decodeAndHash != decode {
		t.Errorf("block: decode costs %.0f allocations, decode then Hash() of each transaction %.0f", decode, decodeAndHash)
	}
	_, _ = sink, kept
}

// TestSeededHashMemoIsInvalidatedByMutation: the memo the decoder fills is
// guarded like the one Hash() fills — change any hashed field of a decoded
// transaction and the digest follows it.
func TestSeededHashMemoIsInvalidatedByMutation(t *testing.T) {
	tx, err := DecodeTx(EncodeTx(memoTx(t)))
	if err != nil {
		t.Fatal(err)
	}
	h := tx.Hash()
	for name, m := range map[string]struct{ mutate, undo func() }{
		"nonce":         {func() { tx.Nonce++ }, func() { tx.Nonce-- }},
		"to":            {func() { tx.To[0] ^= 0xFF }, func() { tx.To[0] ^= 0xFF }},
		"value":         {func() { tx.Value++ }, func() { tx.Value-- }},
		"data in place": {func() { tx.Data[0] ^= 0xFF }, func() { tx.Data[0] ^= 0xFF }},
		"signature":     {func() { tx.Sig.V ^= 1 }, func() { tx.Sig.V ^= 1 }},
	} {
		m.mutate()
		if tx.Hash() == h {
			t.Errorf("%s: Hash() served the decoder's memo after mutation", name)
		}
		m.undo()
		if tx.Hash() != h {
			t.Errorf("%s: Hash() did not return to the original digest after undo", name)
		}
	}
}
