package types

import (
	"runtime"
	"testing"
)

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

// TestDecodedReportAllocations: a decoded transaction's Data aliases the
// bytes it was decoded from, and its memo holds digests only, so an
// initial report (R†), whose Data is its payload, decodes in one
// allocation, the transaction with its memo, as a transfer does.
func TestDecodedReportAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	txs := goldenTxs(t)
	enc := EncodeTx(txs["initial-report"])
	var tx *Transaction
	if n := testing.AllocsPerRun(20, func() { tx, _ = DecodeTx(enc) }); n != 1 {
		t.Errorf("DecodeTx of an initial report: %.0f allocations, want 1", n)
	}
	if len(tx.Data) == 0 || &tx.Data[0] != &enc[len(enc)-len(tx.Data)-sigSize] {
		t.Error("the decoded report's Data does not alias its encoding")
	}
}

// TestDecodedBlockIDAllocations: the first ID() of a decoded block
// stores one 32-byte hash, and every later call reads it.
func TestDecodedBlockIDAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	txs := goldenTxs(t)
	three := []*Transaction{txs["transfer"], txs["sra"], txs["initial-report"]}
	enc := EncodeBlock(&Block{Header: Header{Number: 1, TxRoot: ComputeTxRoot(three)}, Txs: three})
	const runs = 20
	fresh := make([]*Block, runs+1) // AllocsPerRun adds a warm-up call
	for i := range fresh {
		fresh[i], _ = DecodeBlock(enc)
	}
	var sink Hash
	next := 0
	first := testing.AllocsPerRun(runs, func() {
		sink = fresh[next].ID()
		next++
	})
	if first > 1 {
		t.Errorf("first ID() of a decoded block: %.0f allocations, want at most 1", first)
	}
	for i := range fresh {
		fresh[i], _ = DecodeBlock(enc)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, b := range fresh {
		sink = b.ID()
	}
	runtime.ReadMemStats(&after)
	if per := (after.TotalAlloc - before.TotalAlloc) / uint64(len(fresh)); per > 32 {
		t.Errorf("first ID() of a decoded block: %d bytes, want at most 32", per)
	}
	if n := testing.AllocsPerRun(50, func() { sink = fresh[0].ID() }); n != 0 {
		t.Errorf("repeated ID() of a decoded block: %.0f allocations, want 0", n)
	}
	if sink != fresh[0].Header.ID() {
		t.Error("decoded block's ID differs from its header hash")
	}
}
