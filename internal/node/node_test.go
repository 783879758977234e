package node

import (
	"errors"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/detection"
	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/store"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/txpool"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// cluster is a small SmartCrowd network for integration tests.
type cluster struct {
	t         *testing.T
	net       *p2p.Network
	providers []*ProviderNode
	verifier  *detection.GroundTruthVerifier
	now       uint64
}

func newCluster(t *testing.T, nProviders int, alloc map[types.Address]types.Amount) *cluster {
	t.Helper()
	cl := &cluster{
		t:        t,
		net:      p2p.New(p2p.Config{Seed: 1}),
		verifier: detection.NewGroundTruthVerifier(false),
	}
	cfg := chain.DefaultConfig(contract.New(contract.DefaultParams(), cl.verifier))
	cfg.SkipPoWCheck = true
	cfg.Alloc = alloc
	for i := 0; i < nProviders; i++ {
		w := wallet.NewDeterministic("provider-" + string(rune('0'+i)))
		p, err := NewProvider(p2p.NodeID("p"+string(rune('0'+i))), w, cfg, cl.net)
		if err != nil {
			t.Fatal(err)
		}
		cl.providers = append(cl.providers, p)
	}
	return cl
}

// settle advances simulated time and lets every provider drain its inbox
// until the network is quiet.
func (cl *cluster) settle() {
	for i := 0; i < 20; i++ {
		cl.now += 10
		cl.net.AdvanceTo(cl.now)
		for _, p := range cl.providers {
			p.HandleMessages()
		}
		if cl.net.PendingDeliveries() == 0 && i > 1 {
			return
		}
	}
}

// mine makes provider i seal a block and settles propagation.
func (cl *cluster) mine(i int) *types.Block {
	cl.t.Helper()
	cl.now += 15_350
	blk, err := cl.providers[i].MineBlock(cl.now, 1000, 0, 0)
	if err != nil {
		cl.t.Fatal(err)
	}
	cl.settle()
	return blk
}

func fundedActors() (map[types.Address]types.Amount, *wallet.Wallet, *wallet.Wallet) {
	releasing := wallet.NewDeterministic("releasing-provider")
	detecting := wallet.NewDeterministic("detector-wallet")
	alloc := map[types.Address]types.Amount{
		releasing.Address(): types.EtherAmount(5000),
		detecting.Address(): types.EtherAmount(100),
	}
	return alloc, releasing, detecting
}

func TestTxGossipReachesAllProviders(t *testing.T) {
	alloc, releasing, _ := fundedActors()
	cl := newCluster(t, 3, alloc)

	tx := &types.Transaction{
		Kind:     types.TxTransfer,
		Nonce:    0,
		To:       types.Address{1},
		Value:    types.EtherAmount(1),
		GasLimit: 21_000,
		GasPrice: 50 * types.GWei,
	}
	if err := types.SignTx(tx, releasing); err != nil {
		t.Fatal(err)
	}
	if err := cl.providers[0].SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	cl.settle()
	for i, p := range cl.providers {
		if p.PoolLen() != 1 {
			t.Errorf("provider %d pool = %d, want 1", i, p.PoolLen())
		}
	}
}

func TestMinedBlocksConvergeAllChains(t *testing.T) {
	alloc, releasing, _ := fundedActors()
	cl := newCluster(t, 3, alloc)
	tx := &types.Transaction{
		Kind:     types.TxTransfer,
		Nonce:    0,
		To:       types.Address{1},
		Value:    types.EtherAmount(1),
		GasLimit: 21_000,
		GasPrice: 50 * types.GWei,
	}
	if err := types.SignTx(tx, releasing); err != nil {
		t.Fatal(err)
	}
	if err := cl.providers[0].SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	cl.settle()
	blk := cl.mine(1) // a different provider mines it

	for i, p := range cl.providers {
		if p.Chain().Head().ID() != blk.ID() {
			t.Errorf("provider %d head diverged", i)
		}
		if p.PoolLen() != 0 {
			t.Errorf("provider %d pool not pruned after inclusion", i)
		}
	}
}

func TestOrphanBlockBuffering(t *testing.T) {
	alloc, _, _ := fundedActors()
	cl := newCluster(t, 2, alloc)
	isolated := cl.providers[1]

	// Provider 0 mines two blocks while partitioned away from provider 1.
	cl.net.Partition([]p2p.NodeID{cl.providers[0].ID()}, []p2p.NodeID{isolated.ID()})
	b1 := cl.mine(0)
	b2 := cl.mine(0)
	cl.net.Heal()

	// Deliver only the child: the node must buffer it (never apply a
	// block without its parent) and backfill b1 from the announcer.
	_ = cl.net.Send(cl.providers[0].ID(), isolated.ID(),
		p2p.Message{Kind: p2p.MsgBlock, Payload: types.EncodeBlock(b2)})
	if isolated.Chain().HeadNumber() != 0 {
		t.Fatal("orphan applied without parent") // before any settle round
	}
	cl.settle()
	if isolated.Chain().Head().ID() != b2.ID() {
		t.Error("orphan not connected after ancestor backfill")
	}
	if !isolated.Chain().HasBlock(b1.ID()) {
		t.Error("parent not backfilled")
	}
}

func TestDetectorLifecycleEndToEnd(t *testing.T) {
	alloc, releasing, detecting := fundedActors()
	cl := newCluster(t, 2, alloc)

	// The releasing provider announces a vulnerable firmware.
	img := detection.GenerateImage("lock-fw", "2.0", detection.UniverseSpec{High: 3, Medium: 4, Low: 3, Seed: 77})
	sra := &types.SRA{
		Provider:     releasing.Address(),
		Name:         img.Name,
		Version:      img.Version,
		SystemHash:   img.Hash(),
		DownloadLink: "sc://releases/lock-fw/2.0",
		Insurance:    types.EtherAmount(1000),
		Bounty:       types.EtherAmount(5),
	}
	if err := types.SignSRA(sra, releasing); err != nil {
		t.Fatal(err)
	}
	cl.verifier.Register(sra.ID, img)

	sraTx := types.NewSRATx(sra, 0, 2_000_000, 50*types.GWei)
	if err := types.SignTx(sraTx, releasing); err != nil {
		t.Fatal(err)
	}
	if err := cl.providers[0].SubmitTx(sraTx); err != nil {
		t.Fatal(err)
	}
	cl.settle()
	cl.mine(0)

	// A lightweight detector reacts to the SRA.
	engine := &detection.CapabilityEngine{Name: "det", Capability: 1.0, Speed: 4, Seed: 5}
	det := NewDetector("d0", detecting, engine, cl.providers[0].Chain(), cl.net, DefaultDetectorConfig())
	itx, err := det.OnSRA(sra, img)
	if err != nil {
		t.Fatal(err)
	}
	if itx == nil {
		t.Fatal("full-capability detector found nothing")
	}
	cl.settle()
	cl.mine(1) // R† chained

	// Not confirmed deeply enough yet → no reveal.
	if revealed := det.Poll(); len(revealed) != 0 {
		t.Fatal("revealed before confirmation depth")
	}
	cl.mine(0) // depth 2
	revealed := det.Poll()
	if len(revealed) != 1 {
		t.Fatalf("revealed %d reports, want 1", len(revealed))
	}
	cl.settle()
	cl.mine(1) // R* chained, payout executes

	r, err := cl.providers[0].Chain().ReceiptOf(revealed[0].Hash())
	if err != nil {
		t.Fatal(err)
	}
	if !r.Success {
		t.Fatalf("reveal failed: %s", r.Err)
	}
	if r.Payout.Paid == 0 || len(r.Payout.Accepted) == 0 {
		t.Error("no payout for genuine findings")
	}
	if det.Earnings() != r.Payout.Paid {
		t.Errorf("Earnings() = %s, receipt says %s", det.Earnings(), r.Payout.Paid)
	}

	// Consumer consults the authoritative reference.
	sc := contract.New(contract.DefaultParams(), cl.verifier)
	consumer := NewConsumer(cl.providers[1].Chain(), sc, 0)
	ref, err := consumer.Lookup(sra.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ref.ConfirmedVulns == 0 || ref.SafeToDeploy {
		t.Errorf("consumer verdict wrong: %+v", ref)
	}
	if ref.Provider != releasing.Address() {
		t.Error("reference does not name the accountable provider")
	}
	if ref.Reports != 2 {
		t.Errorf("reference lists %d reports, want 2 (R† + R*)", ref.Reports)
	}
	if len(ref.Findings) != int(ref.ConfirmedVulns) {
		t.Error("findings list inconsistent with confirmed count")
	}
}

func TestDetectorRejectsTamperedImage(t *testing.T) {
	alloc, releasing, detecting := fundedActors()
	cl := newCluster(t, 1, alloc)
	img := detection.GenerateImage("fw", "1.0", detection.UniverseSpec{High: 2, Seed: 1})
	sra := &types.SRA{
		Provider:     releasing.Address(),
		Name:         img.Name,
		Version:      img.Version,
		SystemHash:   img.Hash(),
		DownloadLink: "sc://x",
		Insurance:    types.EtherAmount(10),
		Bounty:       types.EtherAmount(1),
	}
	if err := types.SignSRA(sra, releasing); err != nil {
		t.Fatal(err)
	}
	det := NewDetector("d0", detecting, &detection.CapabilityEngine{Capability: 1, Seed: 1},
		cl.providers[0].Chain(), cl.net, DefaultDetectorConfig())

	tampered := detection.GenerateImage("fw", "1.0", detection.UniverseSpec{High: 2, Seed: 999})
	if _, err := det.OnSRA(sra, tampered); err == nil {
		t.Error("detector scanned an image whose hash does not match U_h")
	}
}

func TestDetectorSkipsCleanImage(t *testing.T) {
	alloc, releasing, detecting := fundedActors()
	cl := newCluster(t, 1, alloc)
	img := detection.GenerateImage("clean-fw", "1.0", detection.UniverseSpec{Seed: 1}) // zero vulns
	sra := &types.SRA{
		Provider:     releasing.Address(),
		Name:         img.Name,
		Version:      img.Version,
		SystemHash:   img.Hash(),
		DownloadLink: "sc://x",
		Insurance:    types.EtherAmount(10),
		Bounty:       types.EtherAmount(1),
	}
	if err := types.SignSRA(sra, releasing); err != nil {
		t.Fatal(err)
	}
	det := NewDetector("d0", detecting, &detection.CapabilityEngine{Capability: 1, Seed: 1},
		cl.providers[0].Chain(), cl.net, DefaultDetectorConfig())
	itx, err := det.OnSRA(sra, img)
	if err != nil {
		t.Fatal(err)
	}
	if itx != nil {
		t.Error("detector reported findings on a clean image")
	}
	if det.PendingReveals() != 0 {
		t.Error("pending reveal for a clean image")
	}
}

func TestSubmitTxRejectsDuplicate(t *testing.T) {
	alloc, releasing, _ := fundedActors()
	cl := newCluster(t, 1, alloc)
	tx := &types.Transaction{
		Kind: types.TxTransfer, Nonce: 0, To: types.Address{1},
		Value: 1, GasLimit: 21_000, GasPrice: 50,
	}
	if err := types.SignTx(tx, releasing); err != nil {
		t.Fatal(err)
	}
	if err := cl.providers[0].SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	if err := cl.providers[0].SubmitTx(tx); err == nil {
		t.Error("duplicate submission accepted")
	}
}

// TestPartitionHealReconvergence: two provider groups mine divergent
// chains during a partition; after healing, block gossip plus ancestor
// backfill reconverges every node onto the heavier branch.
func TestPartitionHealReconvergence(t *testing.T) {
	alloc, _, _ := fundedActors()
	cl := newCluster(t, 2, alloc)
	a, b := cl.providers[0], cl.providers[1]

	cl.net.Partition([]p2p.NodeID{a.ID()}, []p2p.NodeID{b.ID()})
	// Group A mines a long-but-light chain; group B a short-but-heavy one.
	for i := 0; i < 3; i++ {
		cl.now += 15_350
		if _, err := a.MineBlock(cl.now, 1000, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	cl.now += 15_350
	heavy, err := b.MineBlock(cl.now, 10_000, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	cl.settle()
	if a.Chain().HeadNumber() != 3 || b.Chain().HeadNumber() != 1 {
		t.Fatalf("partition setup wrong: a=%d b=%d", a.Chain().HeadNumber(), b.Chain().HeadNumber())
	}

	// Heal, then have each side announce its head; backfill does the rest.
	cl.net.Heal()
	aHead := a.Chain().Head()
	_ = cl.net.Send(a.ID(), b.ID(), p2p.Message{Kind: p2p.MsgBlock, Payload: types.EncodeBlock(aHead)})
	_ = cl.net.Send(b.ID(), a.ID(), p2p.Message{Kind: p2p.MsgBlock, Payload: types.EncodeBlock(heavy)})
	for i := 0; i < 10; i++ {
		cl.settle()
	}

	if a.Chain().Head().ID() != heavy.ID() {
		t.Errorf("node A did not reorg to the heavier branch (head %d, td %d)",
			a.Chain().HeadNumber(), a.Chain().CurrentView().TotalDifficulty())
	}
	if b.Chain().Head().ID() != heavy.ID() {
		t.Errorf("node B left its heavy head (head %d)", b.Chain().HeadNumber())
	}
	// Node B also backfilled A's branch blocks (it knows them, even if
	// not canonical).
	if !b.Chain().HasBlock(aHead.ID()) {
		t.Error("node B did not backfill the competing branch")
	}
}

// TestDeepBackfill: a node that missed many blocks recovers the whole
// ancestry chain through recursive block requests.
func TestDeepBackfill(t *testing.T) {
	alloc, _, _ := fundedActors()
	cl := newCluster(t, 2, alloc)
	a, b := cl.providers[0], cl.providers[1]

	cl.net.Partition([]p2p.NodeID{a.ID()}, []p2p.NodeID{b.ID()})
	var head *types.Block
	for i := 0; i < 6; i++ {
		cl.now += 15_350
		var err error
		head, err = a.MineBlock(cl.now, 1000, 0, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	cl.net.Heal()
	// B hears only the head announcement.
	_ = cl.net.Send(a.ID(), b.ID(), p2p.Message{Kind: p2p.MsgBlock, Payload: types.EncodeBlock(head)})
	for i := 0; i < 20; i++ {
		cl.settle()
		if b.Chain().Head().ID() == head.ID() {
			break
		}
	}
	if b.Chain().Head().ID() != head.ID() {
		t.Errorf("deep backfill failed: b at height %d, want 6", b.Chain().HeadNumber())
	}
}

// TestMalformedGossipIsDroppedSilently: garbage payloads must neither
// crash a node nor be relayed.
func TestMalformedGossipIsDroppedSilently(t *testing.T) {
	alloc, _, _ := fundedActors()
	cl := newCluster(t, 2, alloc)
	garbage := [][]byte{
		nil,
		{0x00},
		{0xc0},
		[]byte("definitely not RLP"),
	}
	sentBefore := cl.net.Stats().Sent
	for _, payload := range garbage {
		_ = cl.net.Send("external", cl.providers[0].ID(), p2p.Message{Kind: p2p.MsgTx, Payload: payload})
		_ = cl.net.Send("external", cl.providers[0].ID(), p2p.Message{Kind: p2p.MsgBlock, Payload: payload})
		_ = cl.net.Send("external", cl.providers[0].ID(), p2p.Message{Kind: p2p.MsgBlockRequest, Payload: payload})
	}
	cl.settle()
	if cl.providers[0].PoolLen() != 0 || cl.providers[0].Chain().HeadNumber() != 0 {
		t.Error("garbage gossip affected node state")
	}
	// Nothing was relayed beyond the direct garbage sends themselves.
	relayed := cl.net.Stats().Sent - sentBefore - len(garbage)*3
	if relayed != 0 {
		t.Errorf("node relayed %d messages in response to garbage", relayed)
	}
}

func TestDuplicateBlockRedeliveryIsBenign(t *testing.T) {
	alloc, _, _ := fundedActors()
	cl := newCluster(t, 2, alloc)
	blk := cl.mine(0)
	p1 := cl.providers[1]
	if p1.Chain().Head().ID() != blk.ID() {
		t.Fatal("block did not propagate to provider 1")
	}

	// Redeliver: the chain already holds the block, so the import must be
	// a benign no-op — no error path, no orphan buffering, no state
	// disturbance.
	p1.mu.Lock()
	p1.acceptBlock(blk, "", telemetry.TraceContext{})
	if len(p1.orphans) != 0 {
		p1.mu.Unlock()
		t.Fatal("redelivered known block was buffered as an orphan")
	}
	p1.mu.Unlock()
	if p1.Chain().Head().ID() != blk.ID() {
		t.Fatal("redelivery disturbed the head")
	}

	// The chain keeps working: a child block still connects everywhere.
	child := cl.mine(0)
	if p1.Chain().Head().ID() != child.ID() {
		t.Fatal("child block did not connect after redelivery")
	}
}

// TestDuplicateBlockRedeliveryRecoversNoSender: on a mesh every block
// reaches a provider once per neighbour, so a redelivered block must cost
// a decode and a HasBlock lookup, not an ECDSA recovery per transaction —
// the recovery fan-out runs inside the import, after the duplicate check.
func TestDuplicateBlockRedeliveryRecoversNoSender(t *testing.T) {
	alloc, releasing, _ := fundedActors()
	cl := newCluster(t, 2, alloc)
	for nonce := uint64(0); nonce < 4; nonce++ {
		tx := &types.Transaction{
			Kind: types.TxTransfer, Nonce: nonce, To: types.Address{1}, Value: 1,
			GasLimit: 21_000, GasPrice: 50 * types.GWei,
		}
		if err := types.SignTx(tx, releasing); err != nil {
			t.Fatal(err)
		}
		if err := cl.providers[0].SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	blk := cl.mine(0) // first delivery: provider 1 imports it off gossip
	p1 := cl.providers[1]
	if len(blk.Txs) != 4 || p1.Chain().Head().ID() != blk.ID() {
		t.Fatalf("block has %d txs and provider 1 is at %s, want 4 txs at %s",
			len(blk.Txs), p1.Chain().Head().ID().Short(), blk.ID().Short())
	}

	misses := telemetry.GetCounter("smartcrowd_types_sender_cache_total", telemetry.L("outcome", "miss"))
	dups := mGossipDupBlock.Value()
	before := misses.Value()
	_ = cl.net.Send("external", p1.ID(), p2p.Message{Kind: p2p.MsgBlock, Payload: types.EncodeBlock(blk)})
	cl.now += 10
	cl.net.AdvanceTo(cl.now)
	p1.HandleMessages()
	// Nothing may be recovering in the background either: the warm batch
	// queues behind anything HandleMessages left in the shared pool.
	types.RecoverSenders(blk.Txs)
	if got := mGossipDupBlock.Value() - dups; got != 1 {
		t.Fatalf("redelivery counted %d duplicate blocks, want 1", got)
	}
	if got := misses.Value() - before; got != 0 {
		t.Errorf("redelivered block cost %d sender recoveries, want 0", got)
	}
}

// TestImportOfPooledTxsRecoversNoSender: a follower that admitted a
// transaction off gossip has already recovered its sender; the block that
// later carries it decodes into fresh objects with cold memos, so without
// reuse every transaction costs the node a second ECDSA recovery. Import
// swaps in the pooled object when the hash — which covers every signed
// byte and the signature — matches, and the block costs none.
func TestImportOfPooledTxsRecoversNoSender(t *testing.T) {
	alloc, releasing, _ := fundedActors()
	cl := newCluster(t, 2, alloc)
	const n = 4
	for nonce := uint64(0); nonce < n; nonce++ {
		tx := &types.Transaction{
			Kind: types.TxTransfer, Nonce: nonce, To: types.Address{1}, Value: 1,
			GasLimit: 21_000, GasPrice: 50 * types.GWei,
		}
		if err := types.SignTx(tx, releasing); err != nil {
			t.Fatal(err)
		}
		if err := cl.providers[0].SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
	}
	cl.settle()
	p1 := cl.providers[1]
	if p1.PoolLen() != n {
		t.Fatalf("provider 1 pooled %d gossiped transactions, want %d", p1.PoolLen(), n)
	}

	misses := telemetry.GetCounter("smartcrowd_types_sender_cache_total", telemetry.L("outcome", "miss"))
	before := misses.Value()
	blk := cl.mine(0) // provider 1 imports the block off gossip
	if len(blk.Txs) != n || p1.Chain().Head().ID() != blk.ID() || p1.PoolLen() != 0 {
		t.Fatalf("block has %d txs, provider 1 is at %s with %d pooled; want %d txs at %s and an empty pool",
			len(blk.Txs), p1.Chain().Head().ID().Short(), p1.PoolLen(), n, blk.ID().Short())
	}
	if got := misses.Value() - before; got != 0 {
		t.Errorf("sealing and importing a block of %d pooled transactions cost %d sender recoveries, want 0", n, got)
	}
}

// TestDuplicateInsideOneGossipBatchRecoversOnce: on a mesh a transaction
// reaches a provider from its origin and relayed, and when both copies
// land in one inbox drain neither is pooled yet, so the pool and chain
// lookups cannot tell the second from new. The batch drops it by hash
// before the recovery fan-out sees it: one ECDSA recovery, one relay.
func TestDuplicateInsideOneGossipBatchRecoversOnce(t *testing.T) {
	alloc, releasing, _ := fundedActors()
	cl := newCluster(t, 2, alloc)
	tx := &types.Transaction{
		Kind: types.TxTransfer, To: types.Address{1}, Value: 1,
		GasLimit: 21_000, GasPrice: 50 * types.GWei,
	}
	if err := types.SignTx(tx, releasing); err != nil {
		t.Fatal(err)
	}
	p1 := cl.providers[1]
	payload := types.EncodeTx(tx)
	for _, from := range []p2p.NodeID{"origin", "relay"} {
		_ = cl.net.Send(from, p1.ID(), p2p.Message{Kind: p2p.MsgTx, Payload: payload})
	}
	cl.now += 10
	cl.net.AdvanceTo(cl.now)

	misses := telemetry.GetCounter("smartcrowd_types_sender_cache_total", telemetry.L("outcome", "miss"))
	before, dups, sent := misses.Value(), mGossipDupTx.Value(), cl.net.Stats().Sent
	p1.HandleMessages()
	if p1.PoolLen() != 1 {
		t.Fatalf("provider 1 pooled %d transactions, want 1", p1.PoolLen())
	}
	if got := misses.Value() - before; got != 1 {
		t.Errorf("a batch carrying one transaction twice cost %d sender recoveries, want 1", got)
	}
	if got := mGossipDupTx.Value() - dups; got != 1 {
		t.Errorf("batch counted %d duplicate transactions, want 1", got)
	}
	if got := cl.net.Stats().Sent - sent; got != 1 {
		t.Errorf("provider 1 relayed the transaction %d times, want once to its one peer", got)
	}
}

// TestReopenedProviderDoesNotRebroadcastKnownBlock: "seen" is derived from
// the chain, so it survives a restart. A provider reopened on its datadir
// that is gossiped its own head block again must count a duplicate and
// relay nothing — a per-process seen-set would have forgotten the block
// and re-broadcast it.
func TestReopenedProviderDoesNotRebroadcastKnownBlock(t *testing.T) {
	alloc, _, _ := fundedActors()
	dir := t.TempDir()
	net := p2p.New(p2p.Config{Seed: 1})
	net.Join("peer")
	open := func() *ProviderNode {
		t.Helper()
		disk, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := chain.DefaultConfig(contract.New(contract.DefaultParams(), detection.NewGroundTruthVerifier(false)))
		cfg.SkipPoWCheck = true
		cfg.Alloc = alloc
		cfg.Storage = disk
		p, err := NewProvider("p0", wallet.NewDeterministic("provider-0"), cfg, net)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	first := open()
	head, err := first.MineBlock(15_350, 1000, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Chain().Close(); err != nil {
		t.Fatal(err)
	}

	reopened := open()
	defer reopened.Chain().Close()
	if reopened.Chain().Head().ID() != head.ID() {
		t.Fatal("reopened provider lost its head")
	}
	sent, dups := net.Stats().Sent, mGossipDupBlock.Value()
	if err := net.Send("peer", "p0", p2p.Message{Kind: p2p.MsgBlock, Payload: types.EncodeBlock(head)}); err != nil {
		t.Fatal(err)
	}
	net.AdvanceTo(1_000)
	reopened.HandleMessages()
	if got := net.Stats().Sent - sent; got != 1 {
		t.Errorf("%d messages sent, want only the redelivery itself: a known block was re-broadcast", got)
	}
	if got := mGossipDupBlock.Value() - dups; got != 1 {
		t.Errorf("block duplicate counter moved by %d, want 1", got)
	}
}

// TestOnChainTxIsKnownWithoutHavingBeenPooled: a node that learned a
// transaction only from a block (it never passed through this node's
// pool) still answers a resubmission with ErrKnownTx, because "seen"
// includes the canonical chain of the current view. A local resubmission
// is not a gossip redelivery and leaves that counter alone; the same bytes
// arriving off gossip move it, before they are decoded.
func TestOnChainTxIsKnownWithoutHavingBeenPooled(t *testing.T) {
	alloc, releasing, _ := fundedActors()
	cl := newCluster(t, 2, alloc)
	tx := &types.Transaction{
		Kind:     types.TxTransfer,
		To:       types.Address{1},
		Value:    types.EtherAmount(1),
		GasLimit: 21_000,
		GasPrice: 50 * types.GWei,
	}
	if err := types.SignTx(tx, releasing); err != nil {
		t.Fatal(err)
	}
	// Keep the tx gossip away from provider 1; it sees the tx only inside
	// the block that arrives once the partition heals.
	cl.net.Partition([]p2p.NodeID{"p0"}, []p2p.NodeID{"p1"})
	if err := cl.providers[0].SubmitTx(tx); err != nil {
		t.Fatal(err)
	}
	cl.settle()
	cl.net.Heal()
	blk := cl.mine(0)
	p1 := cl.providers[1]
	if p1.Chain().Head().ID() != blk.ID() || len(blk.Txs) != 1 {
		t.Fatalf("setup: provider 1 head %s, block %s with %d txs", p1.Chain().Head().ID().Short(), blk.ID().Short(), len(blk.Txs))
	}

	dups := mGossipDupTx.Value()
	if err := p1.SubmitTx(tx); !errors.Is(err, txpool.ErrKnownTx) {
		t.Fatalf("resubmitting an on-chain tx: got %v, want ErrKnownTx", err)
	}
	if got := mGossipDupTx.Value() - dups; got != 0 {
		t.Errorf("a local resubmission moved the gossip duplicate counter by %d, want 0", got)
	}
	_ = cl.net.Send("external", p1.ID(), p2p.Message{Kind: p2p.MsgTx, Payload: types.EncodeTx(tx)})
	cl.settle()
	if got := mGossipDupTx.Value() - dups; got != 1 {
		t.Errorf("a gossiped redelivery moved the duplicate counter by %d, want 1", got)
	}
	if p1.PoolLen() != 0 {
		t.Errorf("on-chain tx re-entered the pool (%d pending)", p1.PoolLen())
	}
}

// PendingReveals reports how many committed reports await their reveal.
func (d *DetectorNode) PendingReveals() int { return len(d.pending) }
