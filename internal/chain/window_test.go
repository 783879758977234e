package chain

import (
	"bytes"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"
	"unsafe"

	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// A canonical block more than postHorizon blocks below the head keeps its
// header and its bytes only (entry.release). These tests hold that the
// window is a memory bound and that a block below it answers every read
// as a decoded one does.

// TestEntryIs64Bytes pins the entry's size class: a reopened or
// snap-joined chain holds one entry per block of its history, most of
// them header-only with no execution artifacts (entry.ex).
func TestEntryIs64Bytes(t *testing.T) {
	if size := unsafe.Sizeof(entry{}); size != 64 {
		t.Errorf("entry is %d bytes, want 64", size)
	}
}

// TestWindowReleasesDecodedBodies: once block #1 falls postHorizon blocks
// below the head, nothing holds its decoded transactions, so the garbage
// collector frees them.
func TestWindowReleasesDecodedBodies(t *testing.T) {
	h := newHarness(t)
	payee := wallet.NewDeterministic("payee").Address()
	collected := make(chan struct{})
	func() { // keeps the block out of this frame once it returns
		blk := h.extend(h.transferTx(h.provider, payee, types.EtherAmount(1)))
		runtime.SetFinalizer(blk.Txs[0], func(*types.Transaction) { close(collected) })
	}()
	for i := 0; i < postHorizon+1; i++ {
		h.extend(h.transferTx(h.provider, payee, types.EtherAmount(1)))
	}
	runtime.GC()
	runtime.GC()
	select {
	case <-collected:
	case <-time.After(10 * time.Second):
		t.Fatalf("block #1's transaction is still reachable %d blocks below the head", h.chain.HeadNumber()-1)
	}
	// The chain still answers for the block from its bytes.
	blk, err := h.chain.CurrentView().BlockByNumber(1)
	if err != nil || len(blk.Txs) != 1 {
		t.Fatalf("block #1 after release: %v, %v", blk, err)
	}
}

// TestDeepBlocksMatchDecoded grows a chain past postHorizon+20, reorgs it
// onto a branch forked below the window and back again, and after each
// step compares every read surface with the locked oracle, every record's
// bytes with the encoding of its decoded block, and every block summary
// with the decoded block's.
func TestDeepBlocksMatchDecoded(t *testing.T) {
	h := newHarness(t)
	payee := wallet.NewDeterministic("payee").Address()
	var trunk []*types.Block
	for i := 0; i < postHorizon+20; i++ {
		trunk = append(trunk, h.extend(h.transferTx(h.provider, payee, types.EtherAmount(1))))
	}
	assertDeepBlocksMatch(t, h.chain, 20)

	// A heavier branch from #10, which is below the window: the trunk
	// above it is unindexed, decoded from its bytes where released.
	parentID := trunk[9].ID()
	for i := 0; i < 20; i++ {
		parentID = h.extendOn(parentID, 5000, h.transferTx(h.detector, payee, types.GWei)).ID()
	}
	if h.chain.HeadNumber() != 30 {
		t.Fatalf("head #%d after the branch, want #30", h.chain.HeadNumber())
	}
	assertDeepBlocksMatch(t, h.chain, 10)

	// The trunk wins again: its released blocks are canonical once more.
	parentID = trunk[len(trunk)-1].ID()
	for i := 0; i < 30; i++ {
		parentID = h.extendOn(parentID, 1000, h.transferTx(h.provider, payee, types.EtherAmount(1))).ID()
	}
	if h.chain.Head().ID() != parentID {
		t.Fatal("the trunk did not win back")
	}
	assertDeepBlocksMatch(t, h.chain, 50)
}

// assertDeepBlocksMatch runs assertViewMatchesChain and then checks the
// blocks below the window against their decoded form; wantDeep is how
// many canonical blocks must be held as their bytes.
func assertDeepBlocksMatch(t *testing.T, c *Chain, wantDeep int) {
	t.Helper()
	assertViewMatchesChain(t, c, nil)
	v := c.CurrentView()
	head := v.HeadNumber()
	recs := v.RecordsRange(0, head)
	sums, err := v.AppendSummaries(nil, 0, head)
	if err != nil {
		t.Fatal(err)
	}
	deep := 0
	for n := uint64(0); n <= head; n++ {
		blk, err := v.BlockByNumber(n)
		if err != nil {
			t.Fatal(err)
		}
		hdr, err := v.HeaderByNumber(n)
		if err != nil || hdr.ID() != blk.ID() || hdr.Header != blk.Header {
			t.Fatalf("#%d: header %v, %v; block %s", n, hdr, err, blk.ID().Short())
		}
		rec := recs[n]
		if rec.Block.ID() != blk.ID() {
			t.Fatalf("#%d: record of block %s, want %s", n, rec.Block.ID().Short(), blk.ID().Short())
		}
		if rec.Raw != nil {
			if !bytes.Equal(rec.Raw, types.EncodeBlock(blk)) {
				t.Fatalf("#%d: record bytes are not the block's encoding", n)
			}
			if len(rec.Block.Txs) == 0 && len(blk.Txs) > 0 {
				deep++
			}
		}
		if want := blk.TxSummary(); sums[n].Block.ID() != blk.ID() || !reflect.DeepEqual(sums[n].Txs, want) {
			t.Fatalf("#%d: summary %+v, decoded %+v", n, sums[n].Txs, want)
		}
	}
	if deep != wantDeep {
		t.Fatalf("%d blocks held as their bytes, want %d", deep, wantDeep)
	}
}

// TestReadersBesideRelease runs the view's block readers — BlockByNumber,
// AppendBlocksRange, RecordsRange and AppendSummaries, what a /v1 page
// build reads — on the blocks at the window's edge while imports release
// them. Under -race, a release that wrote anything a published view
// reaches is reported; without it, a reader that saw a block torn between
// its decoded and its released form fails.
func TestReadersBesideRelease(t *testing.T) {
	h := newHarness(t)
	payee := wallet.NewDeterministic("payee").Address()
	for i := 0; i < postHorizon+3; i++ { // so the readers' range starts at #1
		h.extend(h.transferTx(h.provider, payee, types.EtherAmount(1)))
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := h.chain.CurrentView()
				head := v.HeadNumber()
				from, to := head-postHorizon-2, head-postHorizon+2
				blocks := v.AppendBlocksRange(nil, from, to)
				recs := v.RecordsRange(from, to)
				sums, err := v.AppendSummaries(nil, from, to)
				if err != nil {
					t.Error(err)
					return
				}
				for i, blk := range blocks {
					one, err := v.BlockByNumber(from + uint64(i))
					if err != nil || one.ID() != blk.ID() || len(one.Txs) != len(blk.Txs) {
						t.Errorf("#%d read twice: %v, %v", from+uint64(i), one, err)
						return
					}
					if len(blk.Txs) != 1 || recs[i].Block.ID() != blk.ID() || sums[i].Block.ID() != blk.ID() {
						t.Errorf("#%d: %d transactions, record of %s, summary of %s", from+uint64(i),
							len(blk.Txs), recs[i].Block.ID().Short(), sums[i].Block.ID().Short())
						return
					}
					if recs[i].Raw == nil && len(recs[i].Block.Txs) != 1 {
						t.Errorf("#%d: record holds neither the transactions nor their bytes", from+uint64(i))
						return
					}
					if ids := sums[i].Txs.IDs; len(ids) != 1 || ids[0] != blk.Txs[0].Hash() {
						t.Errorf("#%d: summary ids %v, want the block's transaction", from+uint64(i), ids)
						return
					}
				}
			}
		}()
	}
	for i := 0; i < postHorizon; i++ {
		h.extend(h.transferTx(h.provider, payee, types.EtherAmount(1)))
	}
	close(stop)
	wg.Wait()
}
