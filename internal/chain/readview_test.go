package chain

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// assertViewMatchesChain compares every read surface of the current view
// against reads of the chain's own fields under c.mu (oracle_test.go) at
// quiescence: head, state, receipts, confirmations and records.
func assertViewMatchesChain(t *testing.T, c *Chain, sraIDs []types.Hash) {
	t.Helper()
	v := c.CurrentView()
	head := c.lockedHead()
	if v.Head() != head || v.HeadID() != head.ID() {
		t.Fatalf("view head %s != chain head %s", v.Head().ID().Short(), head.ID().Short())
	}
	if v.HeadNumber() != head.Header.Number || v.TotalDifficulty() != c.TotalDifficulty() {
		t.Fatal("view head summary diverges from chain")
	}
	for n := uint64(0); n <= head.Header.Number; n++ {
		cb, err := c.BlockByNumber(n)
		if err != nil {
			t.Fatal(err)
		}
		vb, err := v.BlockByNumber(n)
		if err != nil || vb.ID() != cb.ID() {
			t.Fatalf("view block #%d = %v, %v; chain has %s", n, vb, err, cb.ID().Short())
		}
		for j, tx := range cb.Txs {
			cr, cerr := c.lockedReceipt(tx.Hash())
			vr, verr := v.ReceiptOf(tx.Hash())
			if vr != cr || !errors.Is(verr, errors.Unwrap(cerr)) {
				t.Fatalf("view receipt of %s = %v, %v; chain has %v, %v", tx.Hash().Short(), vr, verr, cr, cerr)
			}
			if cerr != nil {
				if n > v.Horizon() {
					t.Fatal(cerr)
				}
				continue // at the snapshot a reopen restored: never indexed
			}
			if v.Confirmations(tx.Hash()) != c.lockedConfirmations(tx.Hash()) {
				t.Fatalf("view confirmations of %s diverge", tx.Hash().Short())
			}
			id, num, idx, ok := v.TxLocation(tx.Hash())
			if !ok || id != cb.ID() || num != n || idx != j {
				t.Fatalf("view TxLocation(%s) = %s,%d,%d,%v", tx.Hash().Short(), id.Short(), num, idx, ok)
			}
		}
	}
	// Records: the same blocks, and the same bytes where the chain holds
	// a block as its bytes, over the whole chain and past its head.
	vrecs, crecs := v.RecordsRange(0, head.Header.Number+1), c.lockedRecords(0, head.Header.Number+1)
	if len(vrecs) != len(crecs) {
		t.Fatalf("view records %d blocks, chain %d", len(vrecs), len(crecs))
	}
	for i := range vrecs {
		if vrecs[i].Block != crecs[i].Block || !bytes.Equal(vrecs[i].Raw, crecs[i].Raw) {
			t.Fatalf("view record #%d diverges from the chain's", i)
		}
		if cb, _ := c.BlockByNumber(uint64(i)); vrecs[i].Raw != nil && !bytes.Equal(vrecs[i].Raw, types.EncodeBlock(cb)) {
			t.Fatalf("view record #%d holds bytes that are not its block's encoding", i)
		}
	}
	// Frozen state answers like the locked head state, and so does the
	// reference it holds.
	st := c.lockedState()
	if !bytes.Equal(v.State().Serialize(), st.Serialize()) {
		t.Fatal("view state diverges from the locked head state")
	}
	sc := c.cfg.Contract
	if sc.SRACount(v.State()) != sc.SRACount(st) {
		t.Fatal("view SRA listing diverges from the locked head state")
	}
	for _, id := range sraIDs {
		vi, verr := sc.GetSRA(v.State(), id)
		ci, cerr := sc.GetSRA(st, id)
		if vi != ci || (verr == nil) != (cerr == nil) {
			t.Fatalf("view reference of %s = %+v, %v; chain has %+v, %v", id.Short(), vi, verr, ci, cerr)
		}
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

// storedLog is a Storage that hands a fixed StoredChain back on open: a
// reopen without a datadir.
type storedLog struct {
	memLog
	stored *StoredChain
}

func (s *storedLog) Load(types.Hash) (*StoredChain, error) { return s.stored, nil }

// TestReadViewRecordsMatchLockedOnReopen reopens a chain from its blocks'
// records and a snapshot below the head. The entries at or below the
// snapshot keep their log bytes (entry.raw), and the view's records must
// equal the locked ones, bytes included.
func TestReadViewRecordsMatchLockedOnReopen(t *testing.T) {
	h := newHarness(t)
	payee := wallet.NewDeterministic("payee").Address()
	for i := 0; i < 6; i++ {
		h.extend(h.transferTx(h.provider, payee, types.EtherAmount(1)))
	}
	src := h.chain
	at, err := src.BlockByNumber(4)
	if err != nil {
		t.Fatal(err)
	}
	st, err := src.StateAt(at.ID())
	if err != nil {
		t.Fatal(err)
	}
	cfg := src.cfg
	cfg.Storage = &storedLog{stored: &StoredChain{
		Blocks:     recordsOf(src.CanonicalBlocks()[1:]),
		HeadID:     src.Head().ID(),
		HeadNumber: src.HeadNumber(),
		Snapshot:   &StoredSnapshot{Height: 4, BlockID: at.ID(), StateRoot: at.Header.StateRoot, State: st.Serialize()},
	}}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.CurrentView().Horizon() != 4 || c.Head().ID() != src.Head().ID() {
		t.Fatalf("reopened at horizon %d, head %s: want 4, %s", c.CurrentView().Horizon(), c.Head().ID().Short(), src.Head().ID().Short())
	}
	if recs := c.lockedRecords(1, 3); recs[0].Raw == nil || recs[2].Raw == nil {
		t.Fatal("the reopen decoded the blocks below its snapshot: no record kept its bytes")
	}
	assertViewMatchesChain(t, c, nil)
}

// stallLog is a Storage whose AppendBlocks, once armed, reports that it
// entered and then waits for release: a commit stalled in its fsync with
// the chain's write lock held.
type stallLog struct {
	memLog
	armed   bool // set before the stalled commit starts
	entered chan struct{}
	release chan struct{}
}

func (s *stallLog) AppendBlocks(blocks []*types.Block, headID types.Hash, headNumber uint64) error {
	if s.armed {
		close(s.entered)
		<-s.release
	}
	return s.memLog.AppendBlocks(blocks, headID, headNumber)
}

// TestReadersDoNotWaitForCommit stalls a commit in its storage append and
// calls every public reader but the two locked ones (HasBlock and
// BlockByID, which answer for side blocks too). Each must return its
// pre-commit answer while the append is still stalled. The append is
// released only after the readers return, so a reader that takes c.mu
// deadlocks whatever the scheduler does, and the watchdog names it.
func TestReadersDoNotWaitForCommit(t *testing.T) {
	h := newHarness(t)
	log := &stallLog{entered: make(chan struct{}), release: make(chan struct{})}
	cfg := h.chain.cfg
	cfg.Storage = log
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.chain = c
	payee := wallet.NewDeterministic("payee").Address()
	sraTx, _ := h.sraTx(types.EtherAmount(1000), types.EtherAmount(5))
	h.extend(sraTx)
	transfer := h.transferTx(h.provider, payee, types.EtherAmount(1))
	h.extend(transfer)
	head := c.Head()
	next, err := c.BuildBlock(head.ID(), h.miner.Address(), head.Header.Time+15_350, 1000,
		[]*types.Transaction{h.transferTx(h.provider, payee, types.EtherAmount(2))})
	if err != nil {
		t.Fatal(err)
	}

	tx := transfer.Hash()
	readers := []struct {
		name string
		read func() any
	}{
		{"Head", func() any { return c.Head() }},
		{"Genesis", func() any { return c.Genesis() }},
		{"HeadNumber", func() any { return c.HeadNumber() }},
		{"State", func() any { return c.State().Root() }},
		{"CanonicalBlocks", func() any { return c.CanonicalBlocks() }},
		{"StorageStats", func() any { return c.StorageStats() }},
		{"SnapshotNow", func() any { return c.SnapshotNow() }},
		{"CurrentView", func() any { return c.CurrentView() }},
		{"ReadView.Head", func() any { return c.CurrentView().Head() }},
		{"ReadView.HeadID", func() any { return c.CurrentView().HeadID() }},
		{"ReadView.HeadNumber", func() any { return c.CurrentView().HeadNumber() }},
		{"ReadView.TotalDifficulty", func() any { return c.CurrentView().TotalDifficulty() }},
		{"ReadView.Horizon", func() any { return c.CurrentView().Horizon() }},
		{"ReadView.BlockByNumber", func() any { b, err := c.CurrentView().BlockByNumber(2); return []any{b, err} }},
		{"ReadView.AppendBlocksRange", func() any { return c.CurrentView().AppendBlocksRange(nil, 0, 9) }},
		{"ReadView.RecordsRange", func() any { return c.CurrentView().RecordsRange(0, 9) }},
		{"ReadView.ReceiptOf", func() any { r, err := c.CurrentView().ReceiptOf(tx); return []any{r, err} }},
		{"ReadView.Confirmations", func() any { return c.CurrentView().Confirmations(tx) }},
		{"ReadView.TxLocation", func() any { id, n, i, ok := c.CurrentView().TxLocation(tx); return []any{id, n, i, ok} }},
		{"ReadView.State", func() any { return c.CurrentView().State().Root() }},
		{"ReadView.FinalizedDepth", func() any { return c.CurrentView().FinalizedDepth(1) }},
	}
	want := make([]any, len(readers))
	for i, r := range readers {
		want[i] = r.read()
	}

	log.armed = true
	inserted := make(chan error, 1)
	go func() {
		_, err := c.InsertBlock(next)
		inserted <- err
	}()
	<-log.entered

	var current atomic.Value
	var late atomic.Bool // the watchdog fired: later answers follow the commit
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i, r := range readers {
			current.Store(r.name)
			got := r.read()
			if late.Load() {
				return
			}
			if !reflect.DeepEqual(got, want[i]) {
				t.Errorf("%s during the stalled commit = %v, want the pre-commit %v", r.name, got, want[i])
			}
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		late.Store(true)
		t.Errorf("%s waited for the stalled commit: it reads under the chain's lock", current.Load())
	}
	close(log.release)
	<-done
	if err := <-inserted; err != nil {
		t.Fatal(err)
	}
	if c.Head().ID() != next.ID() {
		t.Fatal("the stalled block did not become the head once released")
	}
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
	sc := h.chain.cfg.Contract
	wantRef, err := sc.GetSRA(before.State(), sra.ID)
	if err != nil || wantRef.Reports != 2 {
		t.Fatalf("pre-reorg reference %+v, %v: want 2 reports", wantRef, err)
	}

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
	if got, _ := sc.GetSRA(before.State(), sra.ID); got != wantRef {
		t.Fatalf("old view's reference changed: %+v, was %+v", got, wantRef)
	}
	if id, ok := sc.SRAAt(before.State(), 0); !ok || id != sra.ID || sc.SRACount(before.State()) != 1 {
		t.Fatal("old view's SRA listing changed")
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
	if ref, _ := sc.GetSRA(after.State(), sra.ID); ref.Reports != 2 || ref.ConfirmedVulns != 1 {
		t.Fatalf("new view's reference %+v is not branch B's (2 reports confirming 1)", ref)
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
	cfg := h.chain.cfg
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
				blks := v.AppendBlocksRange(nil, 0, v.HeadNumber())
				if uint64(len(blks)) != v.HeadNumber()+1 {
					t.Error("AppendBlocksRange truncated within the view's own height")
					return
				}
				for i := 1; i < len(blks); i++ {
					if blks[i].Header.ParentID != blks[i-1].ID() {
						t.Error("AppendBlocksRange returned blocks from two forks")
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
	// Interleave State() copies (they bump the shared epoch) with the
	// fork import to stress Copy-vs-frozen-read concurrency.
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
// view's ReceiptOf, reference (contract.GetSRA on its state) and
// State().Root() answers against those taken when it was published the
// whole time. Every head switch writes the transaction trie and the
// contract's storage (the new reports bump the held SRA's tally); under
// -race a write to any node the held view reaches is reported even where
// it would write the same answer back.
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
	sc := h.chain.cfg.Contract
	type answers struct {
		receipts []*Receipt
		ref      contract.SRAInfo
		root     types.Hash
	}
	ask := func() (a answers) {
		for _, tx := range txs {
			r, _ := held.ReceiptOf(tx.Hash())
			a.receipts = append(a.receipts, r)
		}
		a.ref, _ = sc.GetSRA(held.State(), sra.ID)
		a.root = held.State().Root()
		return a
	}
	want := ask()
	if want.ref.Reports != 2 || want.root != held.Head().Header.StateRoot {
		t.Fatalf("held view: %d reports, root %s", want.ref.Reports, want.root.Short())
	}
	same := func(got answers) bool {
		if got.root != want.root || got.ref != want.ref {
			return false
		}
		for i, r := range want.receipts {
			if r == nil || got.receipts[i] != r {
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
