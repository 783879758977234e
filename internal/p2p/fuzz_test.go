package p2p

import (
	"bytes"
	"math"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// Native fuzz targets for the snap-sync and range-sync decoders — the
// payloads a hostile peer controls byte-for-byte once a frame is
// accepted. Mirrors wire's FuzzReadFrame contract: arbitrary bytes must
// never panic, every accepted value must respect its declared bound, and
// the codecs are canonical (re-encode reproduces the input exactly).
// Seed corpora live under testdata/fuzz/; CI runs each target for a 10s
// smoke via `make fuzz-smoke`.

func fuzzHash(b byte) types.Hash {
	var h types.Hash
	for i := range h {
		h[i] = b
	}
	return h
}

// FuzzParseSnapManifest feeds arbitrary payloads to the manifest
// decoder. An accepted manifest must respect the state-size and
// chunk-count caps, never pair a non-empty state with a zero chunk
// size, and re-encode to exactly the input.
func FuzzParseSnapManifest(f *testing.F) {
	f.Add(EncodeSnapManifest(SnapManifest{
		Height:     42,
		BlockID:    fuzzHash(0xaa),
		StateRoot:  fuzzHash(0xbb),
		StateSize:  1 << 20,
		ChunkSize:  1 << 16,
		HeadNumber: 99,
		HeadID:     fuzzHash(0xcc),
	}))
	f.Add(EncodeSnapManifest(SnapManifest{})) // empty snapshot, all zero
	f.Add(EncodeSnapManifest(SnapManifest{
		StateSize: MaxSnapStateSize,
		ChunkSize: MaxSnapStateSize / MaxSnapChunks,
	})) // exactly at both caps
	f.Add(EncodeSnapManifest(SnapManifest{StateSize: MaxSnapStateSize + 1, ChunkSize: 1 << 16})) // state over cap
	f.Add(EncodeSnapManifest(SnapManifest{StateSize: 1 << 20}))                                  // zero chunk size
	f.Add(EncodeSnapManifest(SnapManifest{StateSize: 1 << 20, ChunkSize: 1}))                    // chunk count over cap
	f.Add([]byte(""))                                                                            // empty
	f.Add(bytes.Repeat([]byte{0}, manifestSize-1))                                               // one byte short
	f.Add(bytes.Repeat([]byte{0xff}, manifestSize+1))

	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := ParseSnapManifest(data)
		if err != nil {
			return
		}
		if m.StateSize > MaxSnapStateSize {
			t.Fatalf("accepted manifest declares %d state bytes (max %d)", m.StateSize, MaxSnapStateSize)
		}
		if n := m.Chunks(); n > MaxSnapChunks {
			t.Fatalf("accepted manifest declares %d chunks (max %d)", n, MaxSnapChunks)
		}
		if m.StateSize > 0 && m.ChunkSize == 0 {
			t.Fatalf("accepted manifest with %d state bytes but zero chunk size", m.StateSize)
		}
		if got := EncodeSnapManifest(m); !bytes.Equal(got, data) {
			t.Fatalf("accepted manifest is not canonical:\n in: %x\nout: %x", data, got)
		}
	})
}

// FuzzParseSnapChunkRequest exercises the fixed-size request decoder.
// Accepted requests must re-encode to exactly the input.
func FuzzParseSnapChunkRequest(f *testing.F) {
	f.Add(EncodeSnapChunkRequest(fuzzHash(0xaa), 0))
	f.Add(EncodeSnapChunkRequest(fuzzHash(0x01), MaxSnapChunks-1))
	f.Add([]byte(""))                                   // empty
	f.Add(bytes.Repeat([]byte{0}, types.HashSize+3))    // one byte short
	f.Add(bytes.Repeat([]byte{0xff}, types.HashSize+5)) // one byte long

	f.Fuzz(func(t *testing.T, data []byte) {
		blockID, index, err := ParseSnapChunkRequest(data)
		if err != nil {
			return
		}
		if got := EncodeSnapChunkRequest(blockID, index); !bytes.Equal(got, data) {
			t.Fatalf("accepted chunk request is not canonical:\n in: %x\nout: %x", data, got)
		}
	})
}

// FuzzParseSnapChunk exercises the chunk decoder. Accepted chunks carry
// non-empty data (empty chunks are malformed by contract) and re-encode
// to exactly the input.
func FuzzParseSnapChunk(f *testing.F) {
	f.Add(EncodeSnapChunk(fuzzHash(0xaa), 3, []byte("chunk-bytes")))
	f.Add(EncodeSnapChunk(fuzzHash(0x00), 0, []byte{0x00}))
	f.Add([]byte(""))                                // empty
	f.Add(EncodeSnapChunk(fuzzHash(0xbb), 7, nil))   // header only, no data — malformed
	f.Add(bytes.Repeat([]byte{0}, types.HashSize+3)) // shorter than the header

	f.Fuzz(func(t *testing.T, data []byte) {
		blockID, index, chunk, err := ParseSnapChunk(data)
		if err != nil {
			return
		}
		if len(chunk) == 0 {
			t.Fatal("accepted snap chunk with empty data")
		}
		if got := EncodeSnapChunk(blockID, index, chunk); !bytes.Equal(got, data) {
			t.Fatalf("accepted snap chunk is not canonical:\n in: %x\nout: %x", data, got)
		}
	})
}

// FuzzParseRangeBlocks exercises the length-prefixed block-list decoder
// — the PR 9 bug class where a declared count must never out-allocate
// the frame that already arrived. Accepted lists must respect the count
// cap, their records must fit inside the payload, and the codec is
// canonical: when every record is a block, the block writer rebuilds the
// payload byte for byte, and otherwise the record encoder does.
func FuzzParseRangeBlocks(f *testing.F) {
	f.Add(EncodeRangeBlocks(nil, math.MaxInt))
	f.Add(EncodeRangeBlocks(rangeTestBlocks(3), math.MaxInt))
	f.Add(encodeRangeRecords([][]byte{[]byte("block-one"), []byte("block-two")}))
	f.Add(encodeRangeRecords([][]byte{{}, []byte("after-empty-record")}))
	f.Add([]byte(""))                          // shorter than the count
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})      // count far over maxRangeCount
	f.Add([]byte{0, 0, 0, 2, 0, 0, 0, 1, 'x'}) // declares 2 records, carries 1
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 9, 'x'}) // record declares more bytes than remain
	f.Add([]byte{0, 0, 0, 0, 'x'})             // trailing bytes after the last record

	f.Fuzz(func(t *testing.T, data []byte) {
		blocks, err := ParseRangeBlocks(data)
		if err != nil {
			return
		}
		if len(blocks) > maxRangeCount {
			t.Fatalf("accepted %d range blocks (max %d)", len(blocks), maxRangeCount)
		}
		total := 4
		for _, b := range blocks {
			total += 4 + len(b)
		}
		if total != len(data) {
			t.Fatalf("accepted records cover %d bytes of a %d-byte payload", total, len(data))
		}
		if got := encodeRangeRecords(blocks); !bytes.Equal(got, data) {
			t.Fatalf("accepted range blocks are not canonical:\n in: %x\nout: %x", data, got)
		}
		decoded := make([]types.BlockRecord, 0, len(blocks))
		for _, rec := range blocks {
			b, err := types.DecodeBlock(rec)
			if err != nil {
				return
			}
			decoded = append(decoded, types.BlockRecord{Block: b})
		}
		if got := EncodeRangeBlocks(decoded, math.MaxInt); !bytes.Equal(got, data) {
			t.Fatalf("block writer does not rebuild accepted blocks:\n in: %x\nout: %x", data, got)
		}
	})
}

// FuzzParseAnnounce exercises the relay announcement decoder: an accepted
// payload names MsgTx or MsgBlock, carries 1..MaxAnnounceIDs whole ids,
// and re-encodes to exactly the input.
func FuzzParseAnnounce(f *testing.F) {
	f.Add(EncodeAnnounce(MsgTx, []types.Hash{fuzzHash(0xaa)}))
	f.Add(EncodeAnnounce(MsgBlock, []types.Hash{fuzzHash(0x01), fuzzHash(0x02)}))
	f.Add(EncodeAnnounce(MsgTx, make([]types.Hash, MaxAnnounceIDs)))   // exactly at the cap
	f.Add(EncodeAnnounce(MsgTx, make([]types.Hash, MaxAnnounceIDs+1))) // one over
	f.Add(EncodeAnnounce(MsgBlockRequest, []types.Hash{fuzzHash(0xaa)}))
	f.Add([]byte(""))
	f.Add([]byte{byte(MsgTx)})                                  // kind, no ids
	f.Add(bytes.Repeat([]byte{byte(MsgBlock)}, types.HashSize)) // ragged

	f.Fuzz(func(t *testing.T, data []byte) {
		item, ids, err := ParseAnnounce(data)
		if err != nil {
			return
		}
		if item != MsgTx && item != MsgBlock {
			t.Fatalf("accepted announce of item kind %d", item)
		}
		checkIDList(t, ids, len(data)-1)
		if got := EncodeAnnounce(item, idSlice(ids)); !bytes.Equal(got, data) {
			t.Fatalf("accepted announce is not canonical:\n in: %x\nout: %x", data, got)
		}
	})
}

// FuzzParseTxRequest is the same contract for the transaction request.
func FuzzParseTxRequest(f *testing.F) {
	f.Add(EncodeTxRequest([]types.Hash{fuzzHash(0xaa)}))
	f.Add(EncodeTxRequest(make([]types.Hash, MaxAnnounceIDs)))
	f.Add(EncodeTxRequest(make([]types.Hash, MaxAnnounceIDs+1)))
	f.Add([]byte(""))
	f.Add(bytes.Repeat([]byte{0xff}, types.HashSize+1))

	f.Fuzz(func(t *testing.T, data []byte) {
		ids, err := ParseTxRequest(data)
		if err != nil {
			return
		}
		checkIDList(t, ids, len(data))
		if got := EncodeTxRequest(idSlice(ids)); !bytes.Equal(got, data) {
			t.Fatalf("accepted tx request is not canonical:\n in: %x\nout: %x", data, got)
		}
	})
}

func checkIDList(t *testing.T, ids IDList, payloadBytes int) {
	t.Helper()
	if n := ids.Len(); n < 1 || n > MaxAnnounceIDs || n*types.HashSize != payloadBytes {
		t.Fatalf("accepted %d ids over %d id bytes (max %d ids)", n, payloadBytes, MaxAnnounceIDs)
	}
}

func idSlice(ids IDList) []types.Hash {
	out := make([]types.Hash, ids.Len())
	for i := range out {
		out[i] = ids.At(i)
	}
	return out
}
