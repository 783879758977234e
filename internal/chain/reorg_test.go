package chain

import (
	"reflect"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/critbit"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// assertIndexesMatchScan cross-checks every index the chain maintains
// incrementally against a from-scratch walk of the canonical chain:
// detection records, transaction receipts, and confirmation depths.
func assertIndexesMatchScan(t *testing.T, c *Chain, sraIDs ...types.Hash) {
	t.Helper()

	// Detection index == linear scan, for every SRA of interest.
	for _, id := range sraIDs {
		indexed := c.DetectionResults(id)
		scanned := c.detectionResultsScan(id)
		if !reflect.DeepEqual(indexed, scanned) {
			t.Fatalf("SRA %s: indexed records %v != scanned %v", id.Short(), indexed, scanned)
		}
	}

	// txIndex: every canonical tx resolves to its block's receipt and the
	// right confirmation depth; nothing else is indexed.
	canonical := make(map[types.Hash]uint64)
	head := c.Head().Header.Number
	for _, blk := range c.CanonicalBlocks() {
		for _, tx := range blk.Txs {
			canonical[tx.Hash()] = blk.Header.Number
			r, err := c.ReceiptOf(tx.Hash())
			if err != nil {
				t.Fatalf("canonical tx %s has no receipt: %v", tx.Hash().Short(), err)
			}
			if r.TxHash != tx.Hash() {
				t.Fatalf("receipt of %s carries hash %s", tx.Hash().Short(), r.TxHash.Short())
			}
			if got, want := c.Confirmations(tx.Hash()), head-blk.Header.Number+1; got != want {
				t.Fatalf("confirmations of %s = %d, want %d", tx.Hash().Short(), got, want)
			}
		}
	}
	c.mu.RLock()
	extra := -len(canonical)
	critbit.Walk(c.txTrie, func(critbit.Key, txLoc) { extra++ })
	c.mu.RUnlock()
	if extra != 0 {
		t.Fatalf("txIndex holds %d non-canonical entries", extra)
	}
}

// TestReorgConsistencyAcrossIndexes drives a multi-block fork switch —
// and a switch back — and asserts txIndex, the detection index, ReceiptOf
// and Confirmations all reflect the winning branch only.
func TestReorgConsistencyAcrossIndexes(t *testing.T) {
	h := newHarness(t)
	sraTx, sra := h.sraTx(types.EtherAmount(1000), types.EtherAmount(5))
	b1 := h.extend(sraTx) // block 1: SRA on the common prefix

	// Branch A (initially canonical): two report blocks + a transfer.
	itxA, dtxA := h.reportPair(sra.ID, "V-a1", "V-a2")
	h.extend(itxA)
	h.extend(dtxA)
	payee := wallet.NewDeterministic("payee").Address()
	transferA := h.transferTx(h.provider, payee, types.EtherAmount(3))
	tipA := h.extend(transferA) // branch A tip: block 4
	assertIndexesMatchScan(t, h.chain, sra.ID)
	if len(h.chain.DetectionResults(sra.ID)) != 2 {
		t.Fatal("branch A records not indexed")
	}

	// Branch B: forks off block 1, carries different reports, and wins on
	// total difficulty. Detector nonces restart from branch-1 state.
	branchNonces := map[types.Address]uint64{
		h.detector.Address(): 0,
		h.provider.Address(): 1,
	}
	h.nonces = branchNonces
	itxB, dtxB := h.reportPair(sra.ID, "V-b1")
	f1 := h.extendOn(b1.ID(), 3000, itxB)
	f2 := h.extendOn(f1.ID(), 3000, dtxB)
	if h.chain.Head().ID() != f2.ID() {
		t.Fatal("heavier branch B did not become head")
	}

	// Branch A's artifacts must be gone from every index.
	if _, err := h.chain.ReceiptOf(dtxA.Hash()); err == nil {
		t.Error("orphaned branch-A report still has a canonical receipt")
	}
	if _, err := h.chain.ReceiptOf(transferA.Hash()); err == nil {
		t.Error("orphaned branch-A transfer still has a canonical receipt")
	}
	if got := h.chain.Confirmations(itxA.Hash()); got != 0 {
		t.Errorf("orphaned report reports %d confirmations", got)
	}
	records := h.chain.DetectionResults(sra.ID)
	if len(records) != 2 {
		t.Fatalf("after reorg: %d records, want 2 (branch B pair)", len(records))
	}
	if records[0].Tx.Hash() != itxB.Hash() || records[1].Tx.Hash() != dtxB.Hash() {
		t.Error("detection index serves branch-A records after reorg")
	}
	// The SRA itself sits on the common prefix and must keep its receipt.
	if _, err := h.chain.ReceiptOf(sraTx.Hash()); err != nil {
		t.Errorf("common-prefix SRA lost its receipt: %v", err)
	}
	assertIndexesMatchScan(t, h.chain, sra.ID)

	// Now branch A strikes back with more cumulative difficulty: extend
	// its (non-canonical) old tip until it outweighs branch B and verify
	// the indexes flip cleanly a second time.
	if h.chain.HeadNumber() != 3 {
		t.Fatalf("head number %d, want 3 (branch B tip)", h.chain.HeadNumber())
	}
	h.nonces = map[types.Address]uint64{
		h.detector.Address(): 2, // branch A used detector nonces 0, 1
		h.provider.Address(): 2, // SRA (0) + transfer (1)
	}
	itxA2, dtxA2 := h.reportPair(sra.ID, "V-a3")
	a5 := h.extendOn(tipA.ID(), 9000, itxA2)
	a6 := h.extendOn(a5.ID(), 9000, dtxA2)
	if h.chain.Head().ID() != a6.ID() {
		t.Fatal("re-extended branch A did not reclaim the head")
	}
	records = h.chain.DetectionResults(sra.ID)
	if len(records) != 4 {
		t.Fatalf("after second reorg: %d records, want 4 (A pair + A2 pair)", len(records))
	}
	if _, err := h.chain.ReceiptOf(dtxB.Hash()); err == nil {
		t.Error("branch-B report survived the second reorg")
	}
	if _, err := h.chain.ReceiptOf(transferA.Hash()); err != nil {
		t.Errorf("branch-A transfer not restored: %v", err)
	}
	assertIndexesMatchScan(t, h.chain, sra.ID)
}

// TestBuildBlockBelowSnapshot builds and inserts a fork block on a parent
// below an adopted snapshot's height. Such a parent has no post-state
// (BuildBlock once dereferenced it directly and crashed); both the build
// and the fork insert must rebuild it by re-execution instead.
func TestBuildBlockBelowSnapshot(t *testing.T) {
	h := newHarness(t)
	payee := wallet.NewDeterministic("payee").Address()
	var parent *types.Block
	for i := 0; i < 12; i++ {
		blk := h.extend(h.transferTx(h.provider, payee, types.EtherAmount(1)))
		if i == 3 {
			parent = blk
		}
	}
	h.chain = adoptHead(t, h.chain)

	blk, err := h.chain.BuildBlock(parent.ID(), h.miner.Address(),
		parent.Header.Time+15_350, 1000, nil)
	if err != nil {
		t.Fatalf("BuildBlock on a parent below the snapshot: %v", err)
	}
	if blk.Header.Number != parent.Header.Number+1 {
		t.Errorf("built block number %d, want %d", blk.Header.Number, parent.Header.Number+1)
	}
	// The built block is a valid (light) fork block: insertion succeeds
	// without switching the head.
	switched, err := h.chain.InsertBlock(blk)
	if err != nil {
		t.Fatalf("inserting the fork block: %v", err)
	}
	if switched {
		t.Error("light fork block unexpectedly became head")
	}
}

// materializedPostStates counts the canonical entries holding a
// post-state.
func materializedPostStates(c *Chain) (n int) {
	c.mu.RLock()
	defer c.mu.RUnlock()
	for _, e := range c.canon {
		if e.post != nil {
			n++
		}
	}
	return n
}

// TestPostStatesBoundedAcrossDeepReorg grows a chain past three horizons,
// then reorgs 100 blocks deep onto a side branch whose first block is
// built on a parent that has dropped its post-state. The canonical chain
// holds at most postHorizon + height/postHorizon post-states throughout,
// and every state the chain answers with — kept or rebuilt — has the root
// direct re-execution from genesis gives.
func TestPostStatesBoundedAcrossDeepReorg(t *testing.T) {
	h := newHarness(t)
	payee := wallet.NewDeterministic("payee").Address()
	assertBounded := func() {
		t.Helper()
		bound := postHorizon + int(h.chain.HeadNumber())/postHorizon
		if got := materializedPostStates(h.chain); got > bound {
			t.Fatalf("head #%d: %d canonical post-states, want <= %d", h.chain.HeadNumber(), got, bound)
		}
	}
	for i := 0; i < 200; i++ {
		h.extend(h.transferTx(h.provider, payee, types.EtherAmount(1)))
		assertBounded()
	}

	const forkAt = 100
	fork := h.chain.CanonicalBlocks()[forkAt]
	if h.chain.entries[fork.ID()].post != nil {
		t.Fatalf("block #%d, %d below the head, still holds its post-state", forkAt, 200-forkAt)
	}
	h.nonces[h.provider.Address()] = forkAt
	var tip *types.Block
	for parent, i := fork.ID(), 0; i < 40; i++ {
		tip = h.extendOn(parent, 3000, h.transferTx(h.provider, types.Address{0x5e}, 2))
		parent = tip.ID()
	}
	if h.chain.Head().ID() != tip.ID() {
		t.Fatal("the heavier side branch did not take the head")
	}
	assertBounded()

	cfg := h.chain.Config()
	st, err := h.chain.StateAt(h.chain.Genesis().ID())
	if err != nil {
		t.Fatal(err)
	}
	for _, blk := range h.chain.CanonicalBlocks()[1:] {
		if _, err := execBlock(cfg, st, blk); err != nil {
			t.Fatal(err)
		}
		want := st.Root()
		if want != blk.Header.StateRoot {
			t.Fatalf("block #%d: re-execution gives %s, header %s", blk.Header.Number, want.Short(), blk.Header.StateRoot.Short())
		}
		got, err := h.chain.StateAt(blk.ID())
		if err != nil {
			t.Fatalf("block #%d: %v", blk.Header.Number, err)
		}
		if got.Root() != want {
			t.Fatalf("block #%d: the chain's state has root %s, re-execution %s", blk.Header.Number, got.Root().Short(), want.Short())
		}
	}
}
