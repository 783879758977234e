package types

import (
	"bytes"
	"testing"
)

// decodeBlockRef is the block decoder before the pool lookup, kept as the
// reference: every transaction is built afresh and its memo hashed from
// the fields it was read from.
func decodeBlockRef(data []byte) (*Block, error) {
	r, h := readBlock(data)
	blk := &Block{Header: h, Txs: []*Transaction{}}
	for r.more() {
		tx := new(Transaction)
		if fields := r.next(tx); r.err == nil {
			tx.Data = append([]byte(nil), tx.Data...)
			m := memoOf(fields, listHash(fields))
			tx.memo.Store(&m)
		}
		blk.Txs = append(blk.Txs, tx)
	}
	if err := r.close(); err != nil {
		return nil, err
	}
	return blk, nil
}

// checkPooledDecode decodes data with DecodeBlockPooled over a pool that
// holds extra plus, for each bit set in mask, a separately decoded copy
// of the block's transaction at that index, and compares the result with
// decodeBlockRef: the same error, the same encoding and memos, and a
// pooled pointer exactly where the pool held that transaction's hash.
func checkPooledDecode(t testing.TB, data []byte, mask uint64, extra []*Transaction) {
	t.Helper()
	ref, refErr := decodeBlockRef(data)
	pool := map[Hash]*Transaction{}
	for _, tx := range extra {
		pool[tx.Hash()] = tx
	}
	if refErr == nil {
		for i, tx := range ref.Txs {
			if i < 64 && mask&(1<<i) != 0 {
				cp, err := DecodeTx(EncodeTx(tx))
				if err != nil {
					t.Fatalf("a transaction of an accepted block does not decode alone: %v", err)
				}
				pool[cp.Hash()] = cp
			}
		}
	}
	blk, err := DecodeBlockPooled(data, func(h Hash) *Transaction { return pool[h] })
	if (err == nil) != (refErr == nil) || (err != nil && err.Error() != refErr.Error()) {
		t.Fatalf("on %x DecodeBlockPooled says %v, the reference %v", data, err, refErr)
	}
	if err != nil {
		return
	}
	if blk.Header != ref.Header || len(blk.Txs) != len(ref.Txs) {
		t.Fatalf("on %x: header or transaction count differs from the reference", data)
	}
	if enc := EncodeBlock(blk); !bytes.Equal(enc, data) {
		t.Fatalf("DecodeBlockPooled accepted %x, which re-encodes to %x", data, enc)
	}
	for i, tx := range blk.Txs {
		want := ref.Txs[i]
		if tx.Hash() != want.Hash() || tx.loadMemo().sigHash != want.loadMemo().sigHash {
			t.Fatalf("tx %d: memo differs from the reference's", i)
		}
		if p := pool[want.Hash()]; p != nil && tx != p {
			t.Fatalf("tx %d: pooled but decoded afresh", i)
		}
		for _, p := range pool {
			if tx == p && p.Hash() != want.Hash() {
				t.Fatalf("tx %d: took a pooled transaction of another hash", i)
			}
		}
		checkSeededHash(t, tx)
	}
}

func TestDecodeBlockPooledMatchesReference(t *testing.T) {
	txs := goldenTxs(t)
	var all []*Transaction
	for _, kind := range []string{"transfer", "contract-call", "sra", "initial-report", "detailed-report"} {
		all = append(all, txs[kind])
	}
	blk := EncodeBlock(&Block{Header: Header{Number: 3, Time: 45_000, Difficulty: 8, TxRoot: ComputeTxRoot(all)}, Txs: all})
	for mask := uint64(0); mask < 1<<len(all); mask++ {
		checkPooledDecode(t, blk, mask, nil)
	}
	// A pool of other transactions changes nothing.
	checkPooledDecode(t, blk, 0, []*Transaction{strictTx(t)})
	checkPooledDecode(t, EncodeBlock(&Block{}), 0, all)
}

// FuzzDecodeBlockPooled: the pooled decoder accepts exactly what the
// reference decoder accepts, with the same error and encoding, and reuses
// a pooled transaction only under an equal hash.
func FuzzDecodeBlockPooled(f *testing.F) {
	tx := strictTx(f)
	hdr := (&Header{Number: 1, Time: 15_000, Difficulty: 4}).appendRLP(nil)
	f.Add(EncodeBlock(&Block{Header: Header{Number: 1, Time: 15_000, Difficulty: 4}, Txs: []*Transaction{tx, highSTwin(tx)}}), uint64(1))
	f.Add(rlpList(hdr, rlpList(hostileTxFrames(tx)["list in the data position"])), uint64(1))
	f.Add(rlpList(hdr, rlpList()), uint64(0))
	f.Add([]byte{0xc2, 0xc0, 0xc0}, uint64(3))
	extra := []*Transaction{tx, highSTwin(tx)}
	f.Fuzz(func(t *testing.T, data []byte, mask uint64) { checkPooledDecode(t, data, mask, extra) })
}

// TestPooledBlockDecodesNoTransaction: a block whose transactions are all
// pooled decodes into the Block and its Txs slice alone — no Transaction,
// no memo, no Data copy — while the same bytes decoded without the pool
// allocate for every transaction.
func TestPooledBlockDecodesNoTransaction(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budget is not meaningful under -race")
	}
	const n = 64
	src := strictTx(t)
	txs := make([]*Transaction, n)
	pool := make(map[Hash]*Transaction, n)
	for i := range txs {
		tx := &Transaction{Kind: TxTransfer, Nonce: uint64(i), To: src.To, Value: src.Value, GasLimit: src.GasLimit, GasPrice: src.GasPrice, Sig: src.Sig}
		txs[i] = tx
		pool[tx.Hash()] = tx
	}
	raw := EncodeBlock(&Block{Header: Header{Number: 1}, Txs: txs})
	lookup := func(h Hash) *Transaction { return pool[h] }
	// The Block, then one allocation per growth of its Txs slice.
	var grown []*Transaction
	want := 1.0
	for range txs {
		if len(grown) == cap(grown) {
			want++
		}
		grown = append(grown, nil)
	}
	pooled := testing.AllocsPerRun(20, func() {
		if _, err := DecodeBlockPooled(raw, lookup); err != nil {
			t.Fatal(err)
		}
	})
	fresh := testing.AllocsPerRun(20, func() {
		if _, err := DecodeBlock(raw); err != nil {
			t.Fatal(err)
		}
	})
	if pooled != want {
		t.Errorf("a block of %d pooled transactions decodes with %v allocations, want %v (the Block and its Txs slice)", n, pooled, want)
	}
	if fresh < want+n {
		t.Errorf("the same block decoded without the pool allocates %v times: the pin measures nothing", fresh)
	}
}
