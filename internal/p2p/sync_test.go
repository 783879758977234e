package p2p

import (
	"bytes"
	"encoding/binary"
	"math"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

func TestSnapManifestRoundTrip(t *testing.T) {
	m := SnapManifest{
		Height:     512,
		BlockID:    types.Hash{1, 2, 3},
		StateRoot:  types.Hash{4, 5, 6},
		StateSize:  3<<20 + 17,
		ChunkSize:  1 << 20,
		HeadNumber: 530,
		HeadID:     types.Hash{7, 8, 9},
	}
	got, err := ParseSnapManifest(EncodeSnapManifest(m))
	if err != nil {
		t.Fatalf("ParseSnapManifest: %v", err)
	}
	if got != m {
		t.Fatalf("round trip mismatch: got %+v want %+v", got, m)
	}
	if got.Chunks() != 4 {
		t.Fatalf("Chunks() = %d, want 4", got.Chunks())
	}
}

func TestSnapManifestRejects(t *testing.T) {
	base := EncodeSnapManifest(SnapManifest{Height: 1, StateSize: 100, ChunkSize: 10})
	if _, err := ParseSnapManifest(base[:len(base)-1]); err == nil {
		t.Error("short manifest accepted")
	}
	if _, err := ParseSnapManifest(append(base, 0)); err == nil {
		t.Error("long manifest accepted")
	}
	huge := EncodeSnapManifest(SnapManifest{StateSize: MaxSnapStateSize + 1, ChunkSize: 1})
	if _, err := ParseSnapManifest(huge); err == nil {
		t.Error("oversized state size accepted")
	}
	zeroChunk := EncodeSnapManifest(SnapManifest{StateSize: 100})
	if _, err := ParseSnapManifest(zeroChunk); err == nil {
		t.Error("zero chunk size with nonzero state accepted")
	}
	// A tiny chunk size on a huge blob demands ~2^30 chunk round-trips and
	// a matching slice-header allocation on the requester: rejected.
	tinyChunks := EncodeSnapManifest(SnapManifest{Height: 1, StateSize: MaxSnapStateSize, ChunkSize: 1})
	if _, err := ParseSnapManifest(tinyChunks); err == nil {
		t.Error("manifest with 2^30 chunks accepted")
	}
	// Exactly at the chunk cap is legal.
	atCap := EncodeSnapManifest(SnapManifest{Height: 1, StateSize: MaxSnapStateSize, ChunkSize: MaxSnapStateSize / MaxSnapChunks})
	if m, err := ParseSnapManifest(atCap); err != nil {
		t.Errorf("manifest at the chunk cap rejected: %v", err)
	} else if m.Chunks() != MaxSnapChunks {
		t.Errorf("Chunks() = %d, want %d", m.Chunks(), MaxSnapChunks)
	}
	// Empty state with zero chunk size is legal (a genesis-only server).
	if _, err := ParseSnapManifest(EncodeSnapManifest(SnapManifest{})); err != nil {
		t.Errorf("empty manifest rejected: %v", err)
	}
}

func TestSnapChunkRoundTrip(t *testing.T) {
	id := types.Hash{0xaa}
	data := []byte("chunk payload bytes")
	gotID, idx, gotData, err := ParseSnapChunk(EncodeSnapChunk(id, 7, data))
	if err != nil {
		t.Fatalf("ParseSnapChunk: %v", err)
	}
	if gotID != id || idx != 7 || !bytes.Equal(gotData, data) {
		t.Fatalf("round trip mismatch: %v %d %q", gotID, idx, gotData)
	}

	reqID, reqIdx, err := ParseSnapChunkRequest(EncodeSnapChunkRequest(id, 9))
	if err != nil {
		t.Fatalf("ParseSnapChunkRequest: %v", err)
	}
	if reqID != id || reqIdx != 9 {
		t.Fatalf("request round trip mismatch: %v %d", reqID, reqIdx)
	}
}

func TestSnapChunkRejects(t *testing.T) {
	if _, _, _, err := ParseSnapChunk(EncodeSnapChunk(types.Hash{}, 0, nil)); err == nil {
		t.Error("empty chunk accepted")
	}
	if _, _, _, err := ParseSnapChunk(make([]byte, types.HashSize)); err == nil {
		t.Error("truncated chunk accepted")
	}
	if _, _, err := ParseSnapChunkRequest(make([]byte, types.HashSize+3)); err == nil {
		t.Error("short chunk request accepted")
	}
}

func TestRangeRequestRoundTrip(t *testing.T) {
	from, to, err := ParseRangeRequest(EncodeRangeRequest(10, 200))
	if err != nil {
		t.Fatalf("ParseRangeRequest: %v", err)
	}
	if from != 10 || to != 200 {
		t.Fatalf("round trip mismatch: [%d, %d]", from, to)
	}
	if _, _, err := ParseRangeRequest(EncodeRangeRequest(5, 5)); err != nil {
		t.Errorf("single-block range rejected: %v", err)
	}
	if _, _, err := ParseRangeRequest(EncodeRangeRequest(6, 5)); err == nil {
		t.Error("inverted range accepted")
	}
	if _, _, err := ParseRangeRequest(make([]byte, 15)); err == nil {
		t.Error("short range request accepted")
	}
}

// encodeRangeRecords is the MsgRangeBlocks layout written from records
// that are already encoded, growing the payload by append: the encoder
// EncodeRangeBlocks replaced, kept as its oracle.
func encodeRangeRecords(records [][]byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(records)))
	for _, r := range records {
		out = binary.BigEndian.AppendUint32(out, uint32(len(r)))
		out = append(out, r...)
	}
	return out
}

// rangeTestBlocks returns a chain-shaped run of blocks of growing size.
// Every odd one is a header-only block beside its encoding, as a reopened
// chain hands out the blocks below its snapshot.
func rangeTestBlocks(n int) []types.BlockRecord {
	blocks := make([]types.BlockRecord, n)
	for i := range blocks {
		txs := make([]*types.Transaction, i%4)
		for j := range txs {
			txs[j] = &types.Transaction{Kind: types.TxTransfer, Nonce: uint64(j), To: types.Address{byte(i)},
				Value: types.Amount(i * j), GasLimit: 21_000, Data: bytes.Repeat([]byte{byte(j)}, 40*i)}
		}
		blk := &types.Block{Header: types.Header{Number: uint64(i + 1), Time: uint64(i+1) * 15_000,
			TxRoot: types.ComputeTxRoot(txs)}, Txs: txs}
		blocks[i].Block = blk
		if i%2 == 1 {
			blocks[i] = types.BlockRecord{Block: &types.Block{Header: blk.Header}, Raw: types.EncodeBlock(blk)}
		}
	}
	return blocks
}

// fullRecords decodes every record of blocks, so a test can encode them
// from the block objects alone.
func fullRecords(t testing.TB, blocks []types.BlockRecord) []types.BlockRecord {
	out := make([]types.BlockRecord, len(blocks))
	for i, b := range blocks {
		out[i].Block = b.Block
		if b.Raw != nil {
			blk, err := types.DecodeBlock(b.Raw)
			if err != nil {
				t.Fatal(err)
			}
			out[i].Block = blk
		}
	}
	return out
}

func TestRangeBlocksRoundTrip(t *testing.T) {
	blocks := [][]byte{[]byte("block-one"), {}, []byte("a longer third block record")}
	got, err := ParseRangeBlocks(encodeRangeRecords(blocks))
	if err != nil {
		t.Fatalf("ParseRangeBlocks: %v", err)
	}
	if len(got) != len(blocks) {
		t.Fatalf("got %d records, want %d", len(got), len(blocks))
	}
	for i := range blocks {
		if !bytes.Equal(got[i], blocks[i]) {
			t.Errorf("record %d mismatch", i)
		}
	}
	empty, err := ParseRangeBlocks(EncodeRangeBlocks(nil, math.MaxInt))
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty range blocks: %v %d", err, len(empty))
	}
}

// TestEncodeRangeBlocksMatchesRecordEncoder: the block writer produces the
// oracle's bytes for the records the old serving loop chose — every block
// up to and including the one whose record takes the total past the byte
// budget — at budgets below, on and just past each record boundary.
func TestEncodeRangeBlocksMatchesRecordEncoder(t *testing.T) {
	blocks := rangeTestBlocks(12)
	full := fullRecords(t, blocks)
	budgets := []int{0, 1, math.MaxInt}
	total := 0
	for _, b := range full {
		total += len(types.EncodeBlock(b.Block))
		budgets = append(budgets, total-1, total, total+1)
	}
	for _, budget := range budgets {
		var records [][]byte
		sum := 0
		for _, b := range full {
			rec := types.EncodeBlock(b.Block)
			records = append(records, rec)
			if sum += len(rec); sum > budget {
				break
			}
		}
		want := encodeRangeRecords(records)
		for name, in := range map[string][]types.BlockRecord{"records": blocks, "blocks": full} {
			got := EncodeRangeBlocks(in, budget)
			if !bytes.Equal(got, want) {
				t.Fatalf("budget %d, from %s: writer sent %d bytes, oracle %d (%d records)", budget, name, len(got), len(want), len(records))
			}
			if len(got) != cap(got) {
				t.Errorf("budget %d, from %s: %d-byte payload in a %d-byte buffer", budget, name, len(got), cap(got))
			}
		}
	}
}

// TestEncodeRangeBlocksAllocatesOnce: a range response is one allocation,
// whatever the number of blocks in it.
func TestEncodeRangeBlocksAllocatesOnce(t *testing.T) {
	blocks := rangeTestBlocks(64)
	if n := testing.AllocsPerRun(20, func() { _ = EncodeRangeBlocks(blocks, math.MaxInt) }); n != 1 {
		t.Errorf("EncodeRangeBlocks made %v allocations for %d blocks, want 1", n, len(blocks))
	}
}

func TestRangeBlocksRejects(t *testing.T) {
	valid := encodeRangeRecords([][]byte{[]byte("abc")})
	cases := map[string][]byte{
		"short header":   {0, 0},
		"trailing bytes": append(append([]byte{}, valid...), 0xff),
		"truncated":      valid[:len(valid)-1],
		"count beyond":   {0, 0, 0, 5, 0, 0, 0, 1, 0xaa},
		"huge count":     {0xff, 0xff, 0xff, 0xff},
		"huge record":    {0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff, 0xaa},
	}
	for name, payload := range cases {
		if _, err := ParseRangeBlocks(payload); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestHeadAnnounceRoundTrip(t *testing.T) {
	id := types.Hash{0x42}
	gotID, num, err := ParseHeadAnnounce(EncodeHeadAnnounce(id, 99))
	if err != nil {
		t.Fatalf("ParseHeadAnnounce: %v", err)
	}
	if gotID != id || num != 99 {
		t.Fatalf("round trip mismatch: %v %d", gotID, num)
	}
	if _, _, err := ParseHeadAnnounce(make([]byte, types.HashSize+7)); err == nil {
		t.Error("short announce accepted")
	}
}

func TestSyncKindNames(t *testing.T) {
	want := map[MsgKind]string{
		MsgSnapRequest:      "snap-request",
		MsgSnapManifest:     "snap-manifest",
		MsgSnapChunk:        "snap-chunk",
		MsgSnapChunkRequest: "snap-chunk-request",
		MsgRangeRequest:     "range-request",
		MsgRangeBlocks:      "range-blocks",
		MsgHeadAnnounce:     "head-announce",
	}
	for k, name := range want {
		if k.String() != name {
			t.Errorf("kind %d: String() = %q, want %q", uint8(k), k.String(), name)
		}
	}
	if MsgKind(77).String() != "kind(77)" {
		t.Errorf("unknown kind formatting broke: %q", MsgKind(77).String())
	}
}
