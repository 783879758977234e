package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"hash/crc32"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/node"
	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/rpc"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// A reopened chain holds the blocks below its snapshot head as headers
// and reads their bytes from blocks.log when something asks. These tests
// hold the reads to the bytes that were imported, and to a failure — not
// other bytes, not a panic — when the log cannot give those back.

// reopenedWith grows a datadir by n blocks of txs transfers each, closes
// it (snapshotting its head) and reopens it: every block below the head
// is then read from the log. It returns the reopened fixture and each
// block's encoding.
func reopenedWith(t *testing.T, dir string, n, txs int) (*fixture, [][]byte) {
	t.Helper()
	f := mustOpen(t, dir, 0)
	var want [][]byte
	for i := 0; i < n; i++ {
		want = append(want, types.EncodeBlock(f.extendToOne(txs)))
	}
	if err := f.chain.Close(); err != nil {
		t.Fatal(err)
	}
	reopened := mustOpen(t, dir, 0)
	reopened.nonces = f.nonces
	return reopened, want
}

// rangeOf serves blocks from..to of v as a peer's range sync gets them
// and returns the records the response carries.
func rangeOf(t *testing.T, v *chain.ReadView, from, to uint64) [][]byte {
	t.Helper()
	got, err := p2p.ParseRangeBlocks(p2p.EncodeRangeBlocks(v.RecordsRange(from, to), 1<<30))
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestLogReadOfChangedRecordFailsCorrupt overwrites a record below the
// snapshot after the open, payload and on-disk CRC both, so that the log
// frames and checks as before: every reader of that block fails with
// ErrCorrupt, and none hands out the new bytes.
func TestLogReadOfChangedRecordFailsCorrupt(t *testing.T) {
	dir := t.TempDir()
	f, want := reopenedWith(t, dir, 6, 4)
	defer f.chain.Close()
	v := f.chain.CurrentView()
	rec := v.RecordsRange(2, 2)[0]
	if rec.Stored == nil {
		t.Fatal("block #2 of a reopened chain is not read from the log")
	}

	changed := bytes.Clone(want[1])
	changed[len(changed)-1] ^= 0x01
	fh, err := os.OpenFile(filepath.Join(dir, logName), os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := fh.WriteAt(changed, rec.Stored.Off); err != nil {
		t.Fatal(err)
	}
	sum := binary.BigEndian.AppendUint32(nil, crc32.Checksum(changed, crcTable))
	if _, err := fh.WriteAt(sum, rec.Stored.Off+int64(rec.Stored.Len)); err != nil {
		t.Fatal(err)
	}
	if err := fh.Close(); err != nil {
		t.Fatal(err)
	}

	if blk, err := v.BlockByNumber(2); !errors.Is(err, ErrCorrupt) {
		t.Errorf("BlockByNumber(2) = %v, %v; want ErrCorrupt", blk, err)
	}
	if raw, err := f.chain.BlockByID(rec.Block.ID()); !errors.Is(err, ErrCorrupt) {
		t.Errorf("BlockByID(#2) = %x, %v; want ErrCorrupt", raw, err)
	}
	if _, err := v.AppendSummaries(nil, 2, 2); !errors.Is(err, ErrCorrupt) {
		t.Errorf("AppendSummaries(2, 2): %v, want ErrCorrupt", err)
	}
	if got := rec.AppendTo(nil); len(got) != 0 {
		t.Errorf("the changed record appends %x, want nothing", got)
	}
	if got := v.AppendBlocksRange(nil, 1, 5); len(got) != 1 {
		t.Errorf("AppendBlocksRange(1, 5) gave %d blocks, want the one before the changed record", len(got))
	}
	if got := rangeOf(t, v, 1, 5); len(got) != 1 || !bytes.Equal(got[0], want[0]) {
		t.Errorf("a range over the changed record carries %d records, want block #1 alone", len(got))
	}
	// The blocks around it still read back as imported.
	for _, n := range []uint64{1, 3} {
		if raw, err := f.chain.BlockByID(v.RecordsRange(n, n)[0].Block.ID()); err != nil || !bytes.Equal(raw, want[n-1]) {
			t.Errorf("BlockByID(#%d): %v", n, err)
		}
	}
}

// TestLogReadAfterCloseFailsClosed: a view held past Close reads the
// blocks below the snapshot as ErrClosed, not as a panic, while what it
// holds in memory — the head — still answers.
func TestLogReadAfterCloseFailsClosed(t *testing.T) {
	f, want := reopenedWith(t, t.TempDir(), 4, 2)
	v := f.chain.CurrentView()
	id := v.RecordsRange(1, 1)[0].Block.ID()
	if err := f.chain.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := v.BlockByNumber(1); !errors.Is(err, ErrClosed) {
		t.Errorf("BlockByNumber(1) after Close: %v, want ErrClosed", err)
	}
	if _, err := f.chain.BlockByID(id); !errors.Is(err, ErrClosed) {
		t.Errorf("BlockByID(#1) after Close: %v, want ErrClosed", err)
	}
	if _, err := v.AppendSummaries(nil, 0, 4); !errors.Is(err, ErrClosed) {
		t.Errorf("AppendSummaries after Close: %v, want ErrClosed", err)
	}
	if got := rangeOf(t, v, 1, 4); len(got) != 0 {
		t.Errorf("a range after Close carries %d records, want none", len(got))
	}
	if blk, err := v.BlockByNumber(4); err != nil || !bytes.Equal(types.EncodeBlock(blk), want[3]) {
		t.Errorf("the head after Close: %v", err)
	}
}

// TestLogReadsBesideCommitsAndClose reads the blocks below the snapshot
// from several goroutines while the chain commits on top of them and then
// closes. Every read returns the imported bytes or, once the store is
// closed, ErrClosed, and each reader stops at its first ErrClosed. Run
// under -race, it shows a read shares nothing with a commit or Close that
// the detector would flag.
func TestLogReadsBesideCommitsAndClose(t *testing.T) {
	const blocks = 8
	f, want := reopenedWith(t, t.TempDir(), blocks, 3)
	v := f.chain.CurrentView()
	ids := make([]types.Hash, blocks)
	for n := range ids {
		ids[n] = v.RecordsRange(uint64(n+1), uint64(n+1))[0].Block.ID()
	}

	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; ; i++ {
				n := uint64(i%(blocks-1) + 1)
				check := func(reader string, raw []byte, err error) bool {
					if err != nil && !errors.Is(err, ErrClosed) || err == nil && !bytes.Equal(raw, want[n-1]) {
						t.Errorf("%s(#%d): %x, %v", reader, n, raw, err)
						return false
					}
					return true
				}
				blk, err := v.BlockByNumber(n)
				var raw []byte
				if err == nil {
					raw = types.EncodeBlock(blk)
				}
				if !check("BlockByNumber", raw, err) || errors.Is(err, ErrClosed) {
					return
				}
				raw, err = f.chain.BlockByID(ids[n-1])
				if !check("BlockByID", raw, err) {
					return
				}
				served, err := p2p.ParseRangeBlocks(p2p.EncodeRangeBlocks(v.RecordsRange(n, blocks-1), 1<<30))
				if err != nil {
					t.Error(err)
					return
				}
				for j, got := range served {
					if !bytes.Equal(got, want[n-1+uint64(j)]) {
						t.Errorf("range from #%d: record %d differs", n, j)
						return
					}
				}
			}
		}(g)
	}
	for i := 0; i < 6; i++ {
		f.extendToOne(2)
	}
	if err := f.chain.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
}

// TestLogReadAnswersBlockDuringStalledAppend serves /v1/block/{n} below
// the snapshot of a reopened node, a block no request has read yet, while
// a commit is stalled in the log's fsync, with both the chain's and the
// store's lock held: the answer is read from the log and arrives before
// the append returns.
func TestLogReadAnswersBlockDuringStalledAppend(t *testing.T) {
	dir := t.TempDir()
	f, want := reopenedWith(t, dir, 4, 2)
	if err := f.chain.Close(); err != nil {
		t.Fatal(err)
	}
	fs := newFaultFS(t)
	d, err := openWith(dir, fs)
	if err != nil {
		t.Fatal(err)
	}
	cfg := baseConfig()
	cfg.Storage = d
	prov, err := node.NewProvider("stalled", wallet.NewDeterministic("store-miner"), cfg, nil)
	if err != nil {
		t.Fatal(err)
	}
	c := prov.Chain()
	defer c.Close()
	srv := httptest.NewServer(rpc.NewServer(prov, cfg.Contract))
	defer srv.Close()
	blk, err := types.DecodeBlock(want[1])
	if err != nil {
		t.Fatal(err)
	}

	head := c.Head()
	next, err := c.BuildBlock(head.ID(), f.miner.Address(), head.Header.Time+15_000, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	stalled := fs.stallNextSync()
	inserted := make(chan error, 1)
	go func() {
		_, err := c.InsertBlock(next)
		inserted <- err
	}()
	<-stalled.entered

	answered := make(chan error, 1)
	go func() {
		resp, err := srv.Client().Get(srv.URL + "/v1/block/2")
		if err != nil {
			answered <- err
			return
		}
		defer resp.Body.Close()
		var body struct {
			ID       string   `json:"id"`
			TxHashes []string `json:"txHashes"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			answered <- err
			return
		}
		if resp.StatusCode != http.StatusOK || body.ID != blk.ID().String() || len(body.TxHashes) != len(blk.Txs) {
			answered <- errors.New(resp.Status + ": " + body.ID)
			return
		}
		answered <- nil
	}()
	select {
	case err := <-answered:
		if err != nil {
			t.Errorf("/v1/block/2 during the stalled append: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Error("/v1/block/2 waited for the stalled append")
	}
	close(stalled.release)
	if err := <-inserted; err != nil {
		t.Fatal(err)
	}
}
