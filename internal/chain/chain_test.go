package chain

import (
	"errors"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// harness bundles a chain with funded actors for tests.
type harness struct {
	t        *testing.T
	chain    *Chain
	provider *wallet.Wallet
	detector *wallet.Wallet
	miner    *wallet.Wallet
	nonces   map[types.Address]uint64
}

const testGasPrice = 50 * types.GWei

func newHarness(t *testing.T) *harness {
	t.Helper()
	h := &harness{
		t:        t,
		provider: wallet.NewDeterministic("provider"),
		detector: wallet.NewDeterministic("detector"),
		miner:    wallet.NewDeterministic("miner"),
		nonces:   make(map[types.Address]uint64),
	}
	verifier := contract.VerifierFunc(func(types.Hash, types.Finding) bool { return true })
	cfg := DefaultConfig(contract.New(contract.DefaultParams(), verifier))
	cfg.SkipPoWCheck = true
	cfg.Alloc = map[types.Address]types.Amount{
		h.provider.Address(): types.EtherAmount(5000),
		h.detector.Address(): types.EtherAmount(50),
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.chain = c
	return h
}

func (h *harness) nextNonce(a types.Address) uint64 {
	n := h.nonces[a]
	h.nonces[a] = n + 1
	return n
}

// extend builds, "seals" (difficulty 1000) and inserts a block on the head.
func (h *harness) extend(txs ...*types.Transaction) *types.Block {
	h.t.Helper()
	return h.extendOn(h.chain.Head().ID(), 1000, txs...)
}

func (h *harness) extendOn(parentID types.Hash, difficulty uint64, txs ...*types.Transaction) *types.Block {
	h.t.Helper()
	parent, err := h.chain.BlockByID(parentID)
	if err != nil {
		h.t.Fatal(err)
	}
	blk, err := h.chain.BuildBlock(parentID, h.miner.Address(),
		parent.Header.Time+15_350, difficulty, txs)
	if err != nil {
		h.t.Fatal(err)
	}
	if _, err := h.chain.InsertBlock(blk); err != nil {
		h.t.Fatal(err)
	}
	return blk
}

func (h *harness) transferTx(from *wallet.Wallet, to types.Address, amount types.Amount) *types.Transaction {
	h.t.Helper()
	tx := &types.Transaction{
		Kind:     types.TxTransfer,
		Nonce:    h.nextNonce(from.Address()),
		To:       to,
		Value:    amount,
		GasLimit: 21_000,
		GasPrice: testGasPrice,
	}
	if err := types.SignTx(tx, from); err != nil {
		h.t.Fatal(err)
	}
	return tx
}

func (h *harness) sraTx(insurance, bounty types.Amount) (*types.Transaction, *types.SRA) {
	h.t.Helper()
	sra := &types.SRA{
		Provider:     h.provider.Address(),
		Name:         "cam-fw",
		Version:      "3.1",
		SystemHash:   types.HashBytes([]byte("image-3.1")),
		DownloadLink: "sc://releases/cam-fw/3.1",
		Insurance:    insurance,
		Bounty:       bounty,
	}
	if err := types.SignSRA(sra, h.provider); err != nil {
		h.t.Fatal(err)
	}
	tx := types.NewSRATx(sra, h.nextNonce(h.provider.Address()), 2_000_000, testGasPrice)
	if err := types.SignTx(tx, h.provider); err != nil {
		h.t.Fatal(err)
	}
	return tx, sra
}

func (h *harness) reportPair(sraID types.Hash, ids ...string) (*types.Transaction, *types.Transaction) {
	h.t.Helper()
	fs := make([]types.Finding, len(ids))
	for i, id := range ids {
		fs[i] = types.Finding{VulnID: id, Severity: types.SeverityHigh, Evidence: "poc"}
	}
	detailed := &types.DetailedReport{
		SRAID:    sraID,
		Detector: h.detector.Address(),
		Wallet:   h.detector.Address(),
		Findings: fs,
	}
	if err := types.SignDetailedReport(detailed, h.detector); err != nil {
		h.t.Fatal(err)
	}
	initial := &types.InitialReport{
		SRAID:      sraID,
		Detector:   h.detector.Address(),
		DetailHash: detailed.CommitmentHash(),
		Wallet:     h.detector.Address(),
	}
	if err := types.SignInitialReport(initial, h.detector); err != nil {
		h.t.Fatal(err)
	}
	itx := types.NewInitialReportTx(initial, h.nextNonce(h.detector.Address()), 150_000, testGasPrice)
	if err := types.SignTx(itx, h.detector); err != nil {
		h.t.Fatal(err)
	}
	dtx := types.NewDetailedReportTx(detailed, h.nextNonce(h.detector.Address()), 150_000, testGasPrice)
	if err := types.SignTx(dtx, h.detector); err != nil {
		h.t.Fatal(err)
	}
	return itx, dtx
}

func TestGenesisState(t *testing.T) {
	h := newHarness(t)
	if h.chain.HeadNumber() != 0 {
		t.Error("fresh chain head != genesis")
	}
	st := h.chain.State()
	if st.Balance(h.provider.Address()) != types.EtherAmount(5000) {
		t.Error("genesis alloc missing")
	}
	if h.chain.Genesis().Header.StateRoot != st.Root() {
		t.Error("genesis state root mismatch")
	}
}

func TestTransferBlockUpdatesBalancesAndRewardsMiner(t *testing.T) {
	h := newHarness(t)
	payee := wallet.NewDeterministic("payee").Address()
	tx := h.transferTx(h.provider, payee, types.EtherAmount(10))
	h.extend(tx)

	st := h.chain.State()
	if st.Balance(payee) != types.EtherAmount(10) {
		t.Errorf("payee balance %s", st.Balance(payee))
	}
	fee := types.Amount(21_000) * testGasPrice
	wantMiner := types.EtherAmount(5) + fee
	if st.Balance(h.miner.Address()) != wantMiner {
		t.Errorf("miner balance %s, want %s (reward+fee)", st.Balance(h.miner.Address()), wantMiner)
	}
	r, err := h.chain.ReceiptOf(tx.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Success || r.Fee != fee || r.GasUsed != 21_000 {
		t.Errorf("receipt %+v", r)
	}
}

func TestFullDetectionLifecycleOnChain(t *testing.T) {
	h := newHarness(t)
	sraTx, sra := h.sraTx(types.EtherAmount(1000), types.EtherAmount(5))
	h.extend(sraTx)

	// Insurance escrowed.
	st := h.chain.State()
	if st.Balance(contract.Address) != types.EtherAmount(1000) {
		t.Errorf("escrow balance %s", st.Balance(contract.Address))
	}

	itx, dtx := h.reportPair(sra.ID, "V-1", "V-2")
	h.extend(itx) // Phase I in its own block
	before := h.chain.State().Balance(h.detector.Address())
	h.extend(dtx) // Phase II after confirmation depth 1

	r, err := h.chain.ReceiptOf(dtx.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Success {
		t.Fatalf("detailed report failed: %s", r.Err)
	}
	if r.Payout.Paid != types.EtherAmount(10) {
		t.Errorf("payout %s, want 10 ETH", r.Payout.Paid)
	}
	after := h.chain.State().Balance(h.detector.Address())
	fee := types.Amount(r.GasUsed) * testGasPrice
	if after != before+types.EtherAmount(10)-fee {
		t.Errorf("detector balance delta wrong: %s -> %s", before, after)
	}

	// Consumer query: the authoritative reference lists both reports.
	records := h.chain.DetectionResults(sra.ID)
	if len(records) != 2 {
		t.Fatalf("detection records = %d, want 2", len(records))
	}
	if records[0].Tx.Kind != types.TxInitialReport || records[1].Tx.Kind != types.TxDetailedReport {
		t.Error("records out of order")
	}
}

func TestRevealInSameBlockAsCommitFails(t *testing.T) {
	h := newHarness(t)
	sraTx, sra := h.sraTx(types.EtherAmount(1000), types.EtherAmount(5))
	h.extend(sraTx)
	itx, dtx := h.reportPair(sra.ID, "V-1")
	h.extend(itx, dtx) // same block: CommitDepth=1 forbids it

	r, err := h.chain.ReceiptOf(dtx.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if r.Success {
		t.Error("same-block reveal succeeded; two-phase protection broken")
	}
}

func TestInsertBlockValidation(t *testing.T) {
	h := newHarness(t)
	head := h.chain.Head()

	t.Run("unknown parent", func(t *testing.T) {
		blk, err := h.chain.BuildBlock(head.ID(), h.miner.Address(), head.Header.Time+1, 1000, nil)
		if err != nil {
			t.Fatal(err)
		}
		blk.Header.ParentID = types.HashBytes([]byte("ghost"))
		if _, err := h.chain.InsertBlock(blk); !errors.Is(err, ErrUnknownParent) {
			t.Errorf("err = %v", err)
		}
	})

	t.Run("stale timestamp", func(t *testing.T) {
		blk, err := h.chain.BuildBlock(head.ID(), h.miner.Address(), head.Header.Time+1, 1000, nil)
		if err != nil {
			t.Fatal(err)
		}
		blk.Header.Time = head.Header.Time
		if _, err := h.chain.InsertBlock(blk); !errors.Is(err, ErrBadTimestamp) {
			t.Errorf("err = %v", err)
		}
	})

	t.Run("state root mismatch", func(t *testing.T) {
		blk, err := h.chain.BuildBlock(head.ID(), h.miner.Address(), head.Header.Time+1, 1000, nil)
		if err != nil {
			t.Fatal(err)
		}
		blk.Header.StateRoot = types.HashBytes([]byte("wrong"))
		if _, err := h.chain.InsertBlock(blk); !errors.Is(err, ErrStateMismatch) {
			t.Errorf("err = %v", err)
		}
	})

	t.Run("duplicate block", func(t *testing.T) {
		blk := h.extend()
		if _, err := h.chain.InsertBlock(blk); !errors.Is(err, ErrKnownBlock) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestBadNonceInvalidatesBlock(t *testing.T) {
	h := newHarness(t)
	tx := h.transferTx(h.provider, types.Address{}, 1)
	tx2 := h.transferTx(h.provider, types.Address{}, 1)
	// Swap order: nonce 1 before nonce 0.
	head := h.chain.Head()
	_, err := h.chain.BuildBlock(head.ID(), h.miner.Address(), head.Header.Time+1, 1000,
		[]*types.Transaction{tx2, tx})
	if !errors.Is(err, ErrBadNonce) {
		t.Errorf("err = %v, want ErrBadNonce", err)
	}
}

func TestUnaffordableTxInvalidatesBlock(t *testing.T) {
	h := newHarness(t)
	pauper := wallet.NewDeterministic("pauper")
	tx := &types.Transaction{
		Kind:     types.TxTransfer,
		Nonce:    0,
		To:       types.Address{},
		Value:    types.EtherAmount(1),
		GasLimit: 21_000,
		GasPrice: testGasPrice,
	}
	if err := types.SignTx(tx, pauper); err != nil {
		t.Fatal(err)
	}
	head := h.chain.Head()
	_, err := h.chain.BuildBlock(head.ID(), h.miner.Address(), head.Header.Time+1, 1000,
		[]*types.Transaction{tx})
	if !errors.Is(err, ErrUnaffordableTx) {
		t.Errorf("err = %v, want ErrUnaffordableTx", err)
	}
}

func TestForkChoiceMinorityDoesNotReorg(t *testing.T) {
	h := newHarness(t)
	b1 := h.extend() // canonical: difficulty 1000
	_ = b1
	b2 := h.extend()
	headBefore := h.chain.Head().ID()

	// A lighter fork from genesis must not displace the head.
	g := h.chain.Genesis().ID()
	h.extendOn(g, 500)
	if h.chain.Head().ID() != headBefore {
		t.Error("light fork displaced heavier head")
	}
	_ = b2
}

func TestForkChoiceHeavierForkReorgs(t *testing.T) {
	h := newHarness(t)
	payee := wallet.NewDeterministic("payee").Address()
	tx := h.transferTx(h.provider, payee, types.EtherAmount(7))
	h.extend(tx) // canonical with the transfer

	// Heavier competing fork from genesis without the transfer.
	g := h.chain.Genesis().ID()
	f1 := h.extendOn(g, 3000)
	if h.chain.Head().ID() != f1.ID() {
		t.Fatal("heavier fork did not become head")
	}
	// The transfer is no longer canonical.
	if _, err := h.chain.ReceiptOf(tx.Hash()); err == nil {
		t.Error("orphaned tx still has canonical receipt")
	}
	if h.chain.State().Balance(payee) != 0 {
		t.Error("orphaned transfer still reflected in state")
	}
	if h.chain.Confirmations(tx.Hash()) != 0 {
		t.Error("orphaned tx reports confirmations")
	}
}

func TestMajorityAttackRewritesHistory(t *testing.T) {
	// The 51% attack the paper acknowledges (§VIII): an attacker with more
	// cumulative difficulty CAN displace confirmed detection results. The
	// test documents the vulnerability boundary rather than a defense.
	h := newHarness(t)
	sraTx, sra := h.sraTx(types.EtherAmount(1000), types.EtherAmount(5))
	h.extend(sraTx)
	itx, dtx := h.reportPair(sra.ID, "V-1")
	h.extend(itx)
	h.extend(dtx)
	for i := 0; i < 6; i++ { // bury the result 6 deep: "confirmed"
		h.extend()
	}
	if !h.chain.Confirmed(dtx.Hash()) {
		t.Fatal("report should be confirmed at depth 6")
	}

	// Attacker mines a heavier private chain from genesis.
	parent := h.chain.Genesis().ID()
	attackDifficulty := h.chain.TotalDifficulty() + 1000
	blk, err := h.chain.BuildBlock(parent, h.miner.Address(),
		h.chain.Genesis().Header.Time+1, attackDifficulty, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.chain.InsertBlock(blk); err != nil {
		t.Fatal(err)
	}
	if h.chain.Confirmed(dtx.Hash()) {
		t.Error("expected the majority attack to orphan the detection result")
	}
	if len(h.chain.DetectionResults(sra.ID)) != 0 {
		t.Error("detection results survived the rewrite")
	}
}

func TestConfirmationsCountAndThreshold(t *testing.T) {
	h := newHarness(t)
	tx := h.transferTx(h.provider, types.Address{}, 1)
	h.extend(tx)
	if got := h.chain.Confirmations(tx.Hash()); got != 1 {
		t.Errorf("confirmations = %d, want 1", got)
	}
	for i := 0; i < 4; i++ {
		h.extend()
	}
	if h.chain.Confirmed(tx.Hash()) {
		t.Error("confirmed at depth 5; threshold is 6")
	}
	h.extend()
	if !h.chain.Confirmed(tx.Hash()) {
		t.Error("not confirmed at depth 6")
	}
}

func TestBlockByNumberAndCanonicalBlocks(t *testing.T) {
	h := newHarness(t)
	b1 := h.extend()
	b2 := h.extend()
	got, err := h.chain.BlockByNumber(1)
	if err != nil || got.ID() != b1.ID() {
		t.Error("BlockByNumber(1) wrong")
	}
	if _, err := h.chain.BlockByNumber(99); !errors.Is(err, ErrUnknownBlock) {
		t.Error("missing height not rejected")
	}
	canon := h.chain.CanonicalBlocks()
	if len(canon) != 3 || canon[2].ID() != b2.ID() {
		t.Error("CanonicalBlocks wrong")
	}
}

func TestFailedProtocolTxBurnsGasButRevertsState(t *testing.T) {
	h := newHarness(t)
	// Detailed report without any SRA: fails in the contract, burns gas.
	ghost := types.HashBytes([]byte("no-such-sra"))
	itx, _ := h.reportPair(ghost, "V-1")
	before := h.chain.State().Balance(h.detector.Address())
	h.extend(itx)

	r, err := h.chain.ReceiptOf(itx.Hash())
	if err != nil {
		t.Fatal(err)
	}
	if r.Success {
		t.Fatal("report against unknown SRA succeeded")
	}
	if r.GasUsed != itx.GasLimit {
		t.Errorf("failed tx consumed %d gas, want full limit %d", r.GasUsed, itx.GasLimit)
	}
	after := h.chain.State().Balance(h.detector.Address())
	wantFee := types.Amount(itx.GasLimit) * testGasPrice
	if before-after != wantFee {
		t.Errorf("detector lost %s, want the burned fee %s", before-after, wantFee)
	}
}

func TestSRAWithoutEscrowFundsFails(t *testing.T) {
	h := newHarness(t)
	sraTx, _ := h.sraTx(types.EtherAmount(1000), types.EtherAmount(5))
	sraTx.Value = 0 // strip the deposit; signature breaks → re-sign a fresh tx
	// A hand-built tx that lies about the deposit fails ValidateBasic at
	// the types layer already; here we check the chain rejects the block.
	head := h.chain.Head()
	if err := types.SignTx(sraTx, h.provider); err != nil {
		t.Fatal(err)
	}
	// BuildBlock tolerates the tx (it simply fails in its receipt, burning
	// gas), but consensus validation rejects the block outright.
	blk, err := h.chain.BuildBlock(head.ID(), h.miner.Address(), head.Header.Time+1, 1000,
		[]*types.Transaction{sraTx})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.chain.InsertBlock(blk); err == nil {
		t.Error("block with depositless SRA accepted by consensus")
	}
	// And even if it slipped through, the contract would refuse: check the
	// receipt recorded a failure.
	receipts, err := execBlockForTest(h, blk)
	if err != nil {
		t.Fatal(err)
	}
	if receipts[0].Success {
		t.Error("depositless SRA succeeded in execution")
	}
}

// TestContractCreationRefused: kind 2 is retired. A signed, well-formed
// contract creation is refused by stage 1 of import, before anything
// executes, and a sealer cannot build a block around it.
func TestContractCreationRefused(t *testing.T) {
	h := newHarness(t)
	create := &types.Transaction{
		Kind: types.TxKind(2), Nonce: h.nextNonce(h.provider.Address()),
		GasLimit: 3_000_000, GasPrice: testGasPrice, Data: []byte{0x60, 0x00, 0x60, 0x00, 0xf3},
	}
	if err := types.SignTx(create, h.provider); err != nil {
		t.Fatal(err)
	}
	head := h.chain.Head()
	if _, err := h.chain.BuildBlock(head.ID(), h.miner.Address(), head.Header.Time+15_350, 1000,
		[]*types.Transaction{create}); !errors.Is(err, types.ErrTxBadKind) {
		t.Errorf("BuildBlock: err = %v, want ErrTxBadKind", err)
	}
	// The header of an empty block, with the creation put in its body.
	blk, err := h.chain.BuildBlock(head.ID(), h.miner.Address(), head.Header.Time+15_350, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	blk.Txs = []*types.Transaction{create}
	blk.Header.TxRoot = types.ComputeTxRoot(blk.Txs)
	if _, err := h.chain.InsertBlock(blk); !errors.Is(err, types.ErrTxBadKind) {
		t.Errorf("InsertBlock: err = %v, want ErrTxBadKind", err)
	}
	if h.chain.Head().ID() != head.ID() {
		t.Error("the head moved")
	}
}

// execBlockForTest re-executes a block on a head-state copy.
func execBlockForTest(h *harness, blk *types.Block) ([]*Receipt, error) {
	st := h.chain.State()
	return execBlock(h.chain.Config(), st, blk)
}

// adoptHead returns a fresh chain that snap-adopted src's canonical
// chain at its head — the state production is in after a restart from a
// datadir snapshot or a wire snap-sync: every entry below the head was
// installed without execution and carries no post-state.
func adoptHead(t *testing.T, src *Chain) *Chain {
	t.Helper()
	snap := src.SnapshotNow()
	dst, err := New(src.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.AdoptSnapshot(src.CanonicalBlocks()[1:], snap.State); err != nil {
		t.Fatal(err)
	}
	return dst
}

// TestStateRebuildBelowSnapshot asks an adopted chain for the state of a
// block below its snapshot height: it must rebuild by re-execution from
// genesis and land on the root the uninterrupted chain committed.
func TestStateRebuildBelowSnapshot(t *testing.T) {
	h := newHarness(t)
	payee := wallet.NewDeterministic("payee").Address()
	var midBlock *types.Block
	for i := 0; i < 10; i++ {
		blk := h.extend(h.transferTx(h.provider, payee, types.EtherAmount(1)))
		if i == 2 {
			midBlock = blk
		}
	}
	src := h.chain
	h.chain = adoptHead(t, src)

	st, err := h.chain.StateAt(midBlock.ID())
	if err != nil {
		t.Fatalf("StateAt(below snapshot) failed: %v", err)
	}
	if got := st.Balance(payee); got != types.EtherAmount(3) {
		t.Errorf("rebuilt state balance %s, want 3 ETH (after 3 transfers)", got)
	}
	want, err := src.StateAt(midBlock.ID())
	if err != nil {
		t.Fatal(err)
	}
	if st.Root() != want.Root() || st.Root() != midBlock.Header.StateRoot {
		t.Errorf("rebuilt root %s, uninterrupted chain has %s", st.Root().Short(), want.Root().Short())
	}
	// Head state still reflects all 10 transfers.
	if got := h.chain.State().Balance(payee); got != types.EtherAmount(10) {
		t.Errorf("head balance %s, want 10 ETH", got)
	}
	// Extending the adopted head keeps working.
	h.extend(h.transferTx(h.provider, payee, types.EtherAmount(1)))
	if h.chain.HeadNumber() != 11 {
		t.Error("chain stopped extending after adoption")
	}
}

// TestStateRebuildRejectsForgedPrefixRoot adopts a linked prefix in which
// one header below the snapshot commits to a root its transactions do not
// produce. Adoption cannot see that (prefix headers are shape-checked, and
// only the head's root is compared with the snapshot); the rebuild must.
func TestStateRebuildRejectsForgedPrefixRoot(t *testing.T) {
	h := newHarness(t)
	payee := wallet.NewDeterministic("payee").Address()
	for i := 0; i < 6; i++ {
		h.extend(h.transferTx(h.provider, payee, types.EtherAmount(1)))
	}
	snap := h.chain.SnapshotNow()
	var forged []*types.Block
	parentID := h.chain.Genesis().ID()
	for _, blk := range h.chain.CanonicalBlocks()[1:] {
		hdr := blk.Header
		hdr.ParentID = parentID
		if hdr.Number == 3 {
			hdr.StateRoot = types.HashBytes([]byte("not this block's root"))
		}
		forged = append(forged, &types.Block{Header: hdr, Txs: blk.Txs})
		parentID = forged[len(forged)-1].ID()
	}
	dst, err := New(h.chain.Config())
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.AdoptSnapshot(forged, snap.State); err != nil {
		t.Fatal(err)
	}
	if _, err := dst.StateAt(forged[2].ID()); !errors.Is(err, ErrStateMismatch) {
		t.Fatalf("StateAt(forged header) = %v, want ErrStateMismatch", err)
	}
	if _, err := dst.StateAt(forged[1].ID()); err != nil {
		t.Fatalf("StateAt(honest header below the forged one): %v", err)
	}
}
