package chain

import (
	"bytes"
	"sync"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// assertViewMatchesChain compares every read surface of the current view
// against the chain's locked methods at quiescence.
func assertViewMatchesChain(t *testing.T, c *Chain, sraIDs []types.Hash) {
	t.Helper()
	v := c.CurrentView()
	if v.Head().ID() != c.Head().ID() {
		t.Fatalf("view head %s != chain head %s", v.Head().ID().Short(), c.Head().ID().Short())
	}
	if v.HeadNumber() != c.HeadNumber() || v.TotalDifficulty() != c.TotalDifficulty() {
		t.Fatal("view head summary diverges from chain")
	}
	for n := uint64(0); n <= c.HeadNumber(); n++ {
		cb, err := c.BlockByNumber(n)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := v.BlockByNumber(n)
		if err != nil || vb.ID() != cb.ID() {
			t.Fatalf("view block #%d = %v, %v; chain has %s", n, vb, err, cb.ID().Short())
		}
		for j, tx := range cb.Txs {
			cr, err := c.ReceiptOf(tx.Hash())
			if err != nil {
				t.Fatal(err)
			}
			vr, err := v.ReceiptOf(tx.Hash())
			if err != nil || vr != cr {
				t.Fatalf("view receipt of %s diverges", tx.Hash().Short())
			}
			if v.Confirmations(tx.Hash()) != c.Confirmations(tx.Hash()) {
				t.Fatalf("view confirmations of %s diverge", tx.Hash().Short())
			}
			id, num, idx, ok := v.TxLocation(tx.Hash())
			if !ok || id != cb.ID() || num != n || idx != j {
				t.Fatalf("view TxLocation(%s) = %s,%d,%d,%v", tx.Hash().Short(), id.Short(), num, idx, ok)
			}
		}
	}
	if v.SRACount() != c.SRACount() {
		t.Fatalf("view SRACount %d != chain %d", v.SRACount(), c.SRACount())
	}
	vList, cList := v.SRAList(0, v.SRACount()+1), c.SRAList(0, c.SRACount()+1)
	for i := range cList {
		if vList[i] != cList[i] {
			t.Fatalf("view SRAList[%d] diverges", i)
		}
	}
	for _, id := range sraIDs {
		vRecs, cRecs := v.DetectionResults(id), c.DetectionResults(id)
		if len(vRecs) != len(cRecs) {
			t.Fatalf("view DetectionResults(%s): %d records, chain has %d", id.Short(), len(vRecs), len(cRecs))
		}
		for i := range cRecs {
			if vRecs[i].Tx != cRecs[i].Tx || vRecs[i].Receipt != cRecs[i].Receipt {
				t.Fatalf("view DetectionResults(%s)[%d] diverges", id.Short(), i)
			}
		}
	}
	// Frozen state answers like the locked copy.
	if !bytes.Equal(v.State().Serialize(), c.State().Serialize()) {
		t.Fatal("view state diverges from the locked head state")
	}
}

// TestReadViewMatchesChain extends a chain block by block and checks the
// published view tracks every read surface exactly.
func TestReadViewMatchesChain(t *testing.T) {
	h := newHarness(t)
	sraTx, sra := h.sraTx(types.EtherAmount(1000), types.EtherAmount(5))
	h.extend(sraTx)
	assertViewMatchesChain(t, h.chain, []types.Hash{sra.ID})

	itx, dtx := h.reportPair(sra.ID, "V-1", "V-2")
	h.extend(itx)
	h.extend(dtx)
	payee := wallet.NewDeterministic("payee").Address()
	h.extend(h.transferTx(h.provider, payee, types.EtherAmount(3)))
	assertViewMatchesChain(t, h.chain, []types.Hash{sra.ID})
}

// TestReadViewImmutableAcrossReorg pins a view before a fork switch and
// asserts it keeps serving its own branch bit-exactly after the reorg,
// while the freshly published view serves the winner — the property the
// RPC cache's head-keyed invalidation depends on.
func TestReadViewImmutableAcrossReorg(t *testing.T) {
	h := newHarness(t)
	sraTx, sra := h.sraTx(types.EtherAmount(1000), types.EtherAmount(5))
	b1 := h.extend(sraTx)

	// Branch A: a report pair plus a transfer.
	itxA, dtxA := h.reportPair(sra.ID, "V-a1", "V-a2")
	h.extend(itxA)
	h.extend(dtxA)
	payee := wallet.NewDeterministic("payee").Address()
	transferA := h.transferTx(h.provider, payee, types.EtherAmount(3))
	tipA := h.extend(transferA)

	before := h.chain.CurrentView()
	if before.Head().ID() != tipA.ID() {
		t.Fatal("pre-reorg view not at branch A tip")
	}
	wantBal := before.State().Balance(payee)
	wantRecs := before.DetectionResults(sra.ID)
	wantSRAs := before.SRAList(0, 10)

	// Branch B forks off block 1 and wins on total difficulty.
	h.nonces = map[types.Address]uint64{
		h.detector.Address(): 0,
		h.provider.Address(): 1,
	}
	itxB, dtxB := h.reportPair(sra.ID, "V-b1")
	f1 := h.extendOn(b1.ID(), 3000, itxB)
	f2 := h.extendOn(f1.ID(), 3000, dtxB)
	if h.chain.Head().ID() != f2.ID() {
		t.Fatal("heavier branch B did not become head")
	}

	// The old view still serves branch A, untouched by the reorg.
	if before.Head().ID() != tipA.ID() || before.HeadNumber() != tipA.Header.Number {
		t.Fatal("old view's head changed across the reorg")
	}
	if blk, err := before.BlockByNumber(4); err != nil || blk.ID() != tipA.ID() {
		t.Fatal("old view lost its branch-A tip block")
	}
	if _, err := before.ReceiptOf(transferA.Hash()); err != nil {
		t.Fatalf("old view lost branch-A receipt: %v", err)
	}
	if got := before.DetectionResults(sra.ID); len(got) != len(wantRecs) {
		t.Fatalf("old view's detection records changed: %d, want %d", len(got), len(wantRecs))
	} else {
		for i := range got {
			if got[i].Tx != wantRecs[i].Tx {
				t.Fatalf("old view's detection record %d changed", i)
			}
		}
	}
	if got := before.SRAList(0, 10); len(got) != len(wantSRAs) || got[0] != wantSRAs[0] {
		t.Fatal("old view's SRA index changed")
	}
	if got := before.State().Balance(payee); got != wantBal {
		t.Fatalf("old view's state changed: payee balance %d, was %d", got, wantBal)
	}
	if _, err := before.ReceiptOf(dtxB.Hash()); err == nil {
		t.Fatal("old view sees a branch-B transaction")
	}

	// The new view serves branch B only.
	after := h.chain.CurrentView()
	if after == before {
		t.Fatal("reorg did not publish a new view")
	}
	if after.HeadID() == before.HeadID() {
		t.Fatal("reorg did not change the view generation key")
	}
	if after.Head().ID() != f2.ID() {
		t.Fatal("new view not at branch B tip")
	}
	if _, err := after.ReceiptOf(transferA.Hash()); err == nil {
		t.Fatal("new view still serves an orphaned branch-A transaction")
	}
	recs := after.DetectionResults(sra.ID)
	if len(recs) != 2 || recs[0].Tx.Hash() != itxB.Hash() || recs[1].Tx.Hash() != dtxB.Hash() {
		t.Fatal("new view's detection records are not branch B's")
	}
	if after.State().Balance(payee) != 0 {
		t.Fatal("new view's state still shows the orphaned transfer")
	}
	assertViewMatchesChain(t, h.chain, []types.Hash{sra.ID})
}

// TestReadViewConcurrentHammer runs lock-free readers over live snapshot
// swaps during an active InsertChain — including a reorg mid-batch — and
// checks under -race that every view a reader grabs is internally
// consistent (head, block index, tx index and state all agree).
func TestReadViewConcurrentHammer(t *testing.T) {
	// Build the workload on a source chain: a trunk, then a heavier fork
	// replayed through a second chain via InsertChain.
	h := newHarness(t)
	payee := wallet.NewDeterministic("payee").Address()
	var trunk []*types.Block
	for i := 0; i < 12; i++ {
		trunk = append(trunk, h.extend(h.transferTx(h.provider, payee, types.EtherAmount(1))))
	}
	forkParent := trunk[5]
	h.nonces = map[types.Address]uint64{h.provider.Address(): 6}
	var fork []*types.Block
	parentID := forkParent.ID()
	for i := 0; i < 8; i++ {
		blk := h.extendOn(parentID, 5000, h.transferTx(h.provider, payee, types.EtherAmount(2)))
		fork = append(fork, blk)
		parentID = blk.ID()
	}

	// Replay trunk then fork into a fresh chain while readers hammer it.
	cfg := h.chain.Config()
	target, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := target.CurrentView()
				head := v.Head()
				// Internal consistency: the head resolves through the
				// view's own block index at its own height.
				got, err := v.BlockByNumber(v.HeadNumber())
				if err != nil || got.ID() != head.ID() {
					t.Errorf("view head not in its own index: %v", err)
					return
				}
				if _, err := v.BlockByNumber(v.HeadNumber() + 1); err == nil {
					t.Error("view serves a block past its own head")
					return
				}
				for n := uint64(0); n <= v.HeadNumber(); n += 3 {
					blk, err := v.BlockByNumber(n)
					if err != nil {
						t.Errorf("view block #%d: %v", n, err)
						return
					}
					for j, tx := range blk.Txs {
						if _, err := v.ReceiptOf(tx.Hash()); err != nil {
							t.Errorf("view lost receipt of canonical tx: %v", err)
							return
						}
						_, num, idx, ok := v.TxLocation(tx.Hash())
						if !ok || num != n || idx != j {
							t.Error("view tx location inconsistent with its block index")
							return
						}
					}
				}
				blks := v.BlocksRange(0, v.HeadNumber())
				if uint64(len(blks)) != v.HeadNumber()+1 {
					t.Error("BlocksRange truncated within the view's own height")
					return
				}
				for i := 1; i < len(blks); i++ {
					if blks[i].Header.ParentID != blks[i-1].ID() {
						t.Error("BlocksRange returned blocks from two forks")
						return
					}
				}
				// Frozen state is readable concurrently with commits.
				_ = v.State().Balance(payee)
				_ = v.State().Nonce(payee)
			}
		}()
	}

	if _, err := target.InsertChain(trunk); err != nil {
		t.Fatal(err)
	}
	// Interleave locked State() copies (they bump the shared epoch) with
	// the fork import to stress Copy-vs-frozen-read concurrency.
	if _, err := target.InsertChain(fork[:4]); err != nil {
		t.Fatal(err)
	}
	_ = target.State().Balance(payee)
	if _, err := target.InsertChain(fork[4:]); err != nil {
		t.Fatal(err)
	}
	close(stop)
	wg.Wait()

	if target.Head().ID() != fork[len(fork)-1].ID() {
		t.Fatal("fork did not win on the target chain")
	}
	assertViewMatchesChain(t, target, nil)
}

// TestHeldViewAnswersStayPut holds a view while the chain switches heads
// on top of it and then reorgs it away, with readers comparing the held
// view's ReceiptOf, DetectionResults and State().Root() answers against
// those taken when it was published the whole time. Every head switch
// writes the transaction and detection tries (the new reports extend the
// held SRA's record list); under -race a write to any node the held view
// reaches is reported even where it would write the same answer back.
func TestHeldViewAnswersStayPut(t *testing.T) {
	h := newHarness(t)
	sraTx, sra := h.sraTx(types.EtherAmount(1000), types.EtherAmount(5))
	b1 := h.extend(sraTx)
	itx, dtx := h.reportPair(sra.ID, "V-1", "V-2")
	h.extend(itx)
	h.extend(dtx)
	transfer := h.transferTx(h.provider, wallet.NewDeterministic("payee").Address(), types.EtherAmount(3))
	h.extend(transfer)

	held := h.chain.CurrentView()
	txs := []*types.Transaction{sraTx, itx, dtx, transfer}
	type answers struct {
		receipts []*Receipt
		records  []DetectionRecord
		root     types.Hash
	}
	ask := func() (a answers) {
		for _, tx := range txs {
			r, _ := held.ReceiptOf(tx.Hash())
			a.receipts = append(a.receipts, r)
		}
		a.records = held.DetectionResults(sra.ID)
		a.root = held.State().Root()
		return a
	}
	want := ask()
	if len(want.records) != 2 || want.root != held.Head().Header.StateRoot {
		t.Fatalf("held view: %d records, root %s", len(want.records), want.root.Short())
	}
	same := func(got answers) bool {
		if got.root != want.root || len(got.records) != len(want.records) {
			return false
		}
		for i, r := range want.receipts {
			if r == nil || got.receipts[i] != r {
				return false
			}
		}
		for i, rec := range want.records {
			if got.records[i] != rec {
				return false
			}
		}
		return true
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if !same(ask()) {
					t.Error("the held view's answers changed")
					return
				}
			}
		}()
	}

	for i := 0; i < 6; i++ {
		itx, dtx := h.reportPair(sra.ID, "V-x"+string(rune('a'+i)))
		h.extend(itx)
		h.extend(dtx)
	}
	h.nonces = map[types.Address]uint64{h.detector.Address(): 0, h.provider.Address(): 1}
	itxB, dtxB := h.reportPair(sra.ID, "V-b")
	f1 := h.extendOn(b1.ID(), 10_000, itxB)
	f2 := h.extendOn(f1.ID(), 10_000, dtxB)
	close(stop)
	wg.Wait()
	if h.chain.Head().ID() != f2.ID() {
		t.Fatal("the heavier branch did not reorg the held head away")
	}
	if !same(ask()) {
		t.Fatal("the held view's answers changed across the head switches and the reorg")
	}
}
