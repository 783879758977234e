package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/rlp"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// extendToOne builds and imports one block of n transfers, every one to the
// same recipient, so the state (and a snapshot of it) stays three
// accounts however many transactions the chain holds.
func (f *fixture) extendToOne(n int) *types.Block {
	f.t.Helper()
	payer := f.payer.Address()
	txs := make([]*types.Transaction, n)
	for i := range txs {
		tx := &types.Transaction{
			Kind:     types.TxTransfer,
			Nonce:    f.nonces[payer],
			To:       types.Address{0xb0, 0xb0},
			Value:    types.GWei,
			GasLimit: 21_000,
			GasPrice: 50 * types.GWei,
		}
		if err := types.SignTx(tx, f.payer); err != nil {
			f.t.Fatal(err)
		}
		f.nonces[payer]++
		txs[i] = tx
	}
	head := f.chain.Head()
	blk, err := f.chain.BuildBlock(head.ID(), f.miner.Address(), head.Header.Time+15_000, 1000, txs)
	if err != nil {
		f.t.Fatal(err)
	}
	if err := f.insert(blk); err != nil {
		f.t.Fatal(err)
	}
	return blk
}

// TestPrefixBlocksReadBackByteIdentical: after a reopen from a snapshot,
// every block at or below it is held as log bytes, and each read surface
// hands back a block that encodes to exactly what was imported.
func TestPrefixBlocksReadBackByteIdentical(t *testing.T) {
	dir := t.TempDir()
	f := mustOpen(t, dir, 0)
	var want [][]byte
	for i := 0; i < 6; i++ {
		want = append(want, types.EncodeBlock(f.extendToOne(i%3)))
	}
	if err := f.chain.Close(); err != nil { // writes the snapshot at the head
		t.Fatal(err)
	}

	reopened := mustOpen(t, dir, 0)
	defer reopened.chain.Close()
	c, view := reopened.chain, reopened.chain.CurrentView()
	if got := view.HeadNumber(); got != uint64(len(want)) {
		t.Fatalf("reopened at #%d, want #%d", got, len(want))
	}
	check := func(surface string, n int, blk *types.Block) {
		t.Helper()
		if got := types.EncodeBlock(blk); !bytes.Equal(got, want[n-1]) {
			t.Errorf("%s: block #%d re-encodes to %x, imported %x", surface, n, got, want[n-1])
		}
	}
	viewRange, all := view.AppendBlocksRange(nil, 1, uint64(len(want))), c.CanonicalBlocks()
	records := view.RecordsRange(1, uint64(len(want)))
	for n := 1; n <= len(want); n++ {
		id := viewRange[n-1].ID()
		byID, err := c.BlockByID(id)
		if err != nil {
			t.Fatal(err)
		}
		byNumber, err := view.BlockByNumber(uint64(n))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(byID, want[n-1]) {
			t.Errorf("BlockByID: block #%d is %x, imported %x", n, byID, want[n-1])
		}
		check("ReadView.BlockByNumber", n, byNumber)
		check("ReadView.AppendBlocksRange", n, viewRange[n-1])
		check("CanonicalBlocks", n, all[n])
		if got := records[n-1].AppendTo(nil); !bytes.Equal(got, want[n-1]) {
			t.Errorf("RecordsRange: block #%d writes %x, imported %x", n, got, want[n-1])
		}
	}
}

// TestReopenedNodeServesRangeWithoutDecoding: a range response from a
// reopened chain copies the log records below the snapshot rather than
// decoding and re-encoding them — the records slice and the payload, two
// allocations however many blocks and transactions the range spans.
func TestReopenedNodeServesRangeWithoutDecoding(t *testing.T) {
	const blocks = 8
	dir := t.TempDir()
	f := mustOpen(t, dir, 0)
	var want [][]byte
	for i := 0; i < blocks; i++ {
		want = append(want, types.EncodeBlock(f.extendToOne(16)))
	}
	if err := f.chain.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := mustOpen(t, dir, 0)
	defer reopened.chain.Close()
	c := reopened.chain

	// The head is decoded at open; everything under it is served as bytes.
	payload := p2p.EncodeRangeBlocks(c.CurrentView().RecordsRange(1, blocks), 1<<30)
	got, err := p2p.ParseRangeBlocks(payload)
	if err != nil || len(got) != blocks {
		t.Fatalf("range response: %d records, %v", len(got), err)
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Errorf("block #%d served as %x, imported %x", i+1, got[i], want[i])
		}
	}
	if n := testing.AllocsPerRun(10, func() { _ = p2p.EncodeRangeBlocks(c.CurrentView().RecordsRange(1, blocks-1), 1<<30) }); n != 2 {
		t.Errorf("serving %d prefix blocks made %v allocations, want 2", blocks-1, n)
	}
}

// TestSnapJoinedNodeServesRangeWithoutDecoding is the sibling for a chain
// built by AdoptSnapshot: the prefix is installed as a reopen installs
// it, so every entry below the head holds its record bytes, a range
// response copies them (the same two allocations), and a block read by
// id decodes to the source's.
func TestSnapJoinedNodeServesRangeWithoutDecoding(t *testing.T) {
	const blocks = 8
	src := memFixture(t)
	var prefix []*types.Block
	for i := 0; i < blocks; i++ {
		prefix = append(prefix, src.extendToOne(16))
	}
	joined := mustOpen(t, t.TempDir(), 0)
	defer joined.chain.Close()
	c := joined.chain
	if err := c.AdoptSnapshot(recordsOf(prefix), src.chain.SnapshotNow().State); err != nil {
		t.Fatal(err)
	}

	for i, rec := range c.CurrentView().RecordsRange(1, blocks-1) {
		if rec.Raw == nil || rec.Block.Txs != nil {
			t.Fatalf("prefix block #%d held decoded, not as its record", i+1)
		}
	}
	served := p2p.EncodeRangeBlocks(c.CurrentView().RecordsRange(1, blocks), 1<<30)
	if want := p2p.EncodeRangeBlocks(src.chain.CurrentView().RecordsRange(1, blocks), 1<<30); !bytes.Equal(served, want) {
		t.Error("the joined node serves other bytes than its source")
	}
	if n := testing.AllocsPerRun(10, func() { _ = p2p.EncodeRangeBlocks(c.CurrentView().RecordsRange(1, blocks-1), 1<<30) }); n != 2 {
		t.Errorf("serving %d prefix blocks made %v allocations, want 2", blocks-1, n)
	}
	for _, blk := range prefix {
		got, err := c.BlockByID(blk.ID())
		if err != nil {
			t.Fatal(err)
		}
		if want, err := src.chain.BlockByID(blk.ID()); err != nil || !bytes.Equal(got, want) {
			t.Errorf("BlockByID(#%d) differs from the source's (%v)", blk.Header.Number, err)
		}
	}
}

// rewriteLogRecord replaces the payload of the i-th blocks.log block
// record and re-frames the log around it with a valid length and CRC, and
// commit records that check over the new CRCs, so only the decoder can
// object to the new bytes.
func rewriteLogRecord(t *testing.T, dir string, i int, edit func([]byte) []byte) {
	t.Helper()
	path := filepath.Join(dir, logName)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var (
		out    []byte
		runCRC uint32
	)
	for n := 0; len(raw) > 0; {
		size := binary.BigEndian.Uint32(raw)
		if size == 0 {
			rec := raw[:commitSize]
			out = appendCommit(out, int(binary.BigEndian.Uint32(rec[logHeaderSize:])),
				types.Hash(rec[8:8+types.HashSize]), binary.BigEndian.Uint64(rec[8+types.HashSize:]), runCRC)
			raw, runCRC = raw[commitSize:], 0
			continue
		}
		payload := raw[logHeaderSize : logHeaderSize+size]
		raw = raw[logHeaderSize+size+logTrailerSize:]
		if n == i {
			payload = edit(payload)
		}
		n++
		out = appendRecord(out, types.BlockRecord{Raw: payload})
		runCRC = crc32.Update(runCRC, crcTable, out[len(out)-logTrailerSize:])
	}
	if err := os.WriteFile(path, out, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestNonCanonicalPrefixBodyRefused: a block below the snapshot whose log
// record is CRC-valid and whose header is untouched, but whose first
// transaction carries a tenth field, must still fail the open — the body
// is checked when the header is read, not first when something decodes it.
func TestNonCanonicalPrefixBodyRefused(t *testing.T) {
	dir := t.TempDir()
	f := mustOpen(t, dir, 0)
	for i := 0; i < 4; i++ {
		f.extendToOne(2)
	}
	if err := f.chain.Close(); err != nil {
		t.Fatal(err)
	}
	rewriteLogRecord(t, dir, 1, func(payload []byte) []byte {
		body, _, err := rlp.SplitList(payload)
		if err != nil {
			t.Fatal(err)
		}
		hdr, rest, err := rlp.SplitList(body)
		if err != nil {
			t.Fatal(err)
		}
		txs, _, err := rlp.SplitList(rest)
		if err != nil {
			t.Fatal(err)
		}
		first, others, err := rlp.SplitList(txs)
		if err != nil {
			t.Fatal(err)
		}
		tx := rlp.AppendList(nil, append(append([]byte(nil), first...), 0x80))
		hdrList := rlp.AppendList(nil, hdr)
		txList := rlp.AppendList(nil, append(tx, others...))
		return rlp.AppendList(nil, append(hdrList, txList...))
	})
	if _, err := openFixture(t, dir, 0); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("non-canonical body below the snapshot: got %v, want ErrCorrupt", err)
	}
}

// TestReopenDecodesNoPrefixBody pins that a reopen leaves the blocks
// below its snapshot undecoded. Decoding a transaction allocates at least
// the transaction and its memo, so a reopen that decoded the prefix would
// make two allocations per prefix transaction; this one must stay under
// one. The prefix holds thousands of transactions, so the fixed cost of
// opening (a few hundred allocations, counted process-wide) stays an
// order of magnitude under the bound.
func TestReopenDecodesNoPrefixBody(t *testing.T) {
	const blocks, txsPerBlock = 16, 256
	dir := t.TempDir()
	f := mustOpen(t, dir, 0)
	for i := 0; i < blocks; i++ {
		f.extendToOne(txsPerBlock)
	}
	if err := f.chain.Close(); err != nil {
		t.Fatal(err)
	}

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	reopened := mustOpen(t, dir, 0)
	runtime.ReadMemStats(&after)
	defer reopened.chain.Close()
	if got := reopened.chain.HeadNumber(); got != blocks {
		t.Fatalf("reopened at #%d, want #%d", got, blocks)
	}
	// The head is decoded for the view; everything under it is not.
	prefixTxs := (blocks - 1) * txsPerBlock
	allocs := after.Mallocs - before.Mallocs
	t.Logf("reopen: %d allocations, %d transactions below the snapshot", allocs, prefixTxs)
	if allocs >= uint64(prefixTxs) {
		t.Errorf("reopen made %d allocations over %d transactions below the snapshot: the prefix was decoded", allocs, prefixTxs)
	}
}
