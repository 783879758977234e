package chain

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// A sealer's own block is executed once: BuildBlock's post-state and
// receipts are what InsertBlock commits when the block that comes back is
// the one that was built. These tests pin when that happens, when it must
// not, and that a chain which adopts is indistinguishable from one that
// executes.

// executions counts the two things every block execution with an R* in it
// leaves behind: a call to the contract's verifier and a non-trivial
// state.Root observation.
type executions struct {
	verifier atomic.Int64
	roots    *telemetry.Histogram
}

func (x *executions) now() [2]uint64 {
	return [2]uint64{uint64(x.verifier.Load()), x.roots.Count()}
}

// adoptionHarness is a harness whose verifier counts its calls, grown to a
// head on which an R* is ready to be revealed.
func adoptionHarness(t *testing.T) (*harness, *executions, []*types.Transaction) {
	t.Helper()
	h := newHarness(t)
	x := &executions{roots: telemetry.GetHistogram("smartcrowd_state_root_ns")}
	cfg := h.chain.cfg
	cfg.Contract = contract.New(contract.DefaultParams(),
		contract.VerifierFunc(func(types.Hash, types.Finding) bool {
			x.verifier.Add(1)
			return true
		}))
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.chain = c
	sraTx, sra := h.sraTx(types.EtherAmount(1000), types.EtherAmount(5))
	h.extend(sraTx)
	itx, dtx := h.reportPair(sra.ID, "V-1")
	parent := h.chain.Head()
	h.extend(itx)
	// The head's sibling, for the case that re-parents: the same R† sealed
	// by someone else, so the R* executes there too — on another state.
	side, err := c.BuildBlock(parent.ID(), types.Address{0x51}, parent.Header.Time+15_350, 1000, []*types.Transaction{itx})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.InsertBlock(side); err != nil {
		t.Fatal(err)
	}
	return h, x, []*types.Transaction{dtx, h.transferTx(h.provider, types.Address{7}, 5)}
}

// TestOwnBlockIsAdoptedOnlyWhenTheHeaderMatches walks the eight header
// fields: a block equal to the built one except for Nonce is committed
// without being executed again, and one that differs anywhere else is
// executed — or refused before execution — and judged as any block is.
func TestOwnBlockIsAdoptedOnlyWhenTheHeaderMatches(t *testing.T) {
	cases := []struct {
		field    string
		mutate   func(h *harness, hdr *types.Header)
		executed bool
		wantErr  error
	}{
		{"Nonce", func(_ *harness, hdr *types.Header) { hdr.Nonce += 77 }, false, nil},
		{"ParentID", func(h *harness, hdr *types.Header) {
			head := hdr.ParentID
			for id, e := range h.chain.entries {
				if e.block().Header.Number == hdr.Number-1 && id != head {
					hdr.ParentID = id
				}
			}
		}, true, ErrStateMismatch},
		{"Number", func(_ *harness, hdr *types.Header) { hdr.Number++ }, false, pow.ErrBadNumber},
		{"Time", func(_ *harness, hdr *types.Header) { hdr.Time++ }, true, nil},
		{"Difficulty", func(_ *harness, hdr *types.Header) { hdr.Difficulty++ }, true, nil},
		{"Miner", func(_ *harness, hdr *types.Header) { hdr.Miner[0] ^= 1 }, true, ErrStateMismatch},
		{"TxRoot", func(_ *harness, hdr *types.Header) { hdr.TxRoot[0] ^= 1 }, false, types.ErrBlockBadTxRoot},
		{"StateRoot", func(_ *harness, hdr *types.Header) { hdr.StateRoot[0] ^= 1 }, true, ErrStateMismatch},
	}
	for _, tc := range cases {
		t.Run(tc.field, func(t *testing.T) {
			h, x, txs := adoptionHarness(t)
			head := h.chain.Head()
			blk, err := h.chain.BuildBlock(head.ID(), h.miner.Address(), head.Header.Time+15_350, 1000, txs)
			if err != nil {
				t.Fatal(err)
			}
			built := blk.Header
			blk = types.Edited(blk, func(b *types.Block) { tc.mutate(h, &b.Header) })
			if blk.Header == built {
				t.Fatal("the case changed nothing")
			}
			before := x.now()
			switched, err := h.chain.InsertBlock(blk)
			after := x.now()
			if !errors.Is(err, tc.wantErr) {
				t.Fatalf("InsertBlock err = %v, want %v", err, tc.wantErr)
			}
			if switched != (tc.wantErr == nil) {
				t.Fatalf("switched = %v with err %v", switched, err)
			}
			if executed := after != before; executed != tc.executed {
				t.Fatalf("verifier calls and dirty roots went %v → %v during InsertBlock; executed = %v, want %v",
					before, after, executed, tc.executed)
			}
			if tc.wantErr != nil {
				return
			}
			// Adopted or executed, the committed block answers alike.
			r, err := h.chain.CurrentView().ReceiptOf(txs[0].Hash())
			if err != nil || !r.Success || r.Payout.Paid == 0 {
				t.Fatalf("R* receipt = %+v, %v", r, err)
			}
			if got := h.chain.CurrentView().State().Root(); got != blk.Header.StateRoot {
				t.Fatalf("published state root %s, header %s", got.Short(), blk.Header.StateRoot.Short())
			}
		})
	}
}

// TestAdoptionNeedsTheLatestBuild: the memo is one slot. A block built
// before another BuildBlock is executed like a stranger's, and so is the
// latest one when the remembered parent is not the entry it attaches to.
func TestAdoptionNeedsTheLatestBuild(t *testing.T) {
	t.Run("intervening build", func(t *testing.T) {
		h, x, txs := adoptionHarness(t)
		head := h.chain.Head()
		first, err := h.chain.BuildBlock(head.ID(), h.miner.Address(), head.Header.Time+15_350, 1000, txs)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := h.chain.BuildBlock(head.ID(), h.miner.Address(), head.Header.Time+15_351, 1000, nil); err != nil {
			t.Fatal(err)
		}
		before := x.now()
		if _, err := h.chain.InsertBlock(first); err != nil {
			t.Fatal(err)
		}
		if after := x.now(); after[0] == before[0] || after[1] == before[1] {
			t.Fatalf("a superseded build was not executed on import: %v → %v", before, after)
		}
	})
	t.Run("parent entry differs", func(t *testing.T) {
		h, x, txs := adoptionHarness(t)
		head := h.chain.Head()
		blk, err := h.chain.BuildBlock(head.ID(), h.miner.Address(), head.Header.Time+15_350, 1000, txs)
		if err != nil {
			t.Fatal(err)
		}
		h.chain.built.parent = h.chain.genesis
		before := x.now()
		if _, err := h.chain.InsertBlock(blk); err != nil {
			t.Fatal(err)
		}
		if after := x.now(); after[0] == before[0] || after[1] == before[1] {
			t.Fatalf("a build on another parent entry was adopted: %v → %v", before, after)
		}
	})
}

// TestBuildThenCloseRefusesTheBlock: a pending build does not let an
// import past Close.
func TestBuildThenCloseRefusesTheBlock(t *testing.T) {
	h, _, txs := adoptionHarness(t)
	head := h.chain.Head()
	blk, err := h.chain.BuildBlock(head.ID(), h.miner.Address(), head.Header.Time+15_350, 1000, txs)
	if err != nil {
		t.Fatal(err)
	}
	if err := h.chain.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.chain.InsertBlock(blk); !errors.Is(err, ErrClosed) {
		t.Fatalf("InsertBlock after Close: %v, want ErrClosed", err)
	}
	if h.chain.Head().ID() != head.ID() {
		t.Fatal("head moved after Close")
	}
}

// TestAdoptedStateIsReadableWhileSealing has a reader take the root of
// every published head state while the writer keeps building and adopting:
// the adopted post-state was summed by BuildBlock before any view could
// reach it, so under -race the reader's Root is a pure read.
func TestAdoptedStateIsReadableWhileSealing(t *testing.T) {
	h := newHarness(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
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
			if got := v.State().Root(); got != v.Head().Header.StateRoot {
				t.Errorf("view #%d: state root %s, header %s", v.HeadNumber(), got.Short(), v.Head().Header.StateRoot.Short())
				return
			}
		}
	}()
	for i := 0; i < 200; i++ {
		h.extend(h.transferTx(h.provider, types.Address{byte(i)}, 1))
	}
	close(stop)
	wg.Wait()
}

// memLog is a Storage that keeps what a backend would write: each
// commit's encoded blocks and the head committed with them.
// The chain appends under its write lock and the test reads when it is
// done, so it needs no lock of its own.
type memLog struct{ records [][]byte }

func (m *memLog) Load(types.Hash) (*StoredChain, error) { return &StoredChain{}, nil }
func (m *memLog) AppendBlocks(blocks []*types.Block, headID types.Hash, headNumber uint64) error {
	recs := make([]types.BlockRecord, len(blocks))
	for i, blk := range blocks {
		recs[i].Block = blk
	}
	return m.AppendRecords(recs, headID, headNumber)
}
func (m *memLog) AppendRecords(recs []types.BlockRecord, headID types.Hash, headNumber uint64) error {
	for _, rec := range recs {
		m.records = append(m.records, rec.AppendTo(nil))
	}
	m.records = append(m.records, []byte(fmt.Sprintf("head %s %d", headID, headNumber)))
	return nil
}
func (m *memLog) SaveSnapshot(StoredSnapshot) error { return nil }
func (m *memLog) Stats() StorageStats               { return StorageStats{Backend: "memlog"} }
func (m *memLog) Close() error                      { return nil }

// TestSealerAndImporterAgree is the differential: chain A builds, seals
// with the real CPU sealer and inserts its own blocks (adopting), chain B
// imports decoded copies of the same blocks in the same order (executing).
// Over a seeded mix of every transaction kind — a failing one included —
// a build superseded before its seal lands, a stale seal that attaches
// beside the head, and the reorg onto it, the two must agree on every
// receipt, every root, every view answer and every byte handed to storage.
func TestSealerAndImporterAgree(t *testing.T) {
	h := &harness{
		t:        t,
		provider: wallet.NewDeterministic("provider"),
		detector: wallet.NewDeterministic("detector"),
		miner:    wallet.NewDeterministic("miner"),
		nonces:   make(map[types.Address]uint64),
	}
	// Some findings are confirmed and some are not: both are receipts.
	verifier := contract.VerifierFunc(func(_ types.Hash, f types.Finding) bool { return !strings.HasSuffix(f.VulnID, "-0") })
	// A short detection window, so the mix's refunds land both inside and
	// after it.
	params := contract.DefaultParams()
	params.DetectionWindow = 8
	cfg := DefaultConfig(contract.New(params, verifier))
	cfg.Rule = pow.Rule{Retarget: liveRetarget}
	cfg.Alloc = map[types.Address]types.Amount{
		h.provider.Address(): types.EtherAmount(50_000),
		h.detector.Address(): types.EtherAmount(500),
	}
	logA, logB := &memLog{}, &memLog{}
	cfg.Storage = logA
	a, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Storage = logB
	b, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	h.chain = a

	// One thread finds the same nonce every run, so the head id is a golden.
	sealer := &pow.CPUSealer{Threads: 1}
	build := func(parent *types.Block, txs ...*types.Transaction) *types.Block {
		t.Helper()
		timestamp := parent.Header.Time + 15_000
		blk, err := a.BuildBlock(parent.ID(), h.miner.Address(), timestamp,
			cfg.Rule.Next(&parent.Header, timestamp), txs)
		if err != nil {
			t.Fatal(err)
		}
		return blk
	}
	// land seals a built block and gives it to both chains: A the sealed
	// block, B a decoded copy. It returns the sealed block.
	land := func(blk *types.Block) *types.Block {
		t.Helper()
		sealed, err := sealer.Seal(blk.Header, nil)
		if err != nil {
			t.Fatal(err)
		}
		blk = &types.Block{Header: sealed, Txs: blk.Txs}
		switchedA, err := a.InsertBlock(blk)
		if err != nil {
			t.Fatalf("A, block #%d: %v", blk.Header.Number, err)
		}
		copyOf, err := types.DecodeBlock(types.EncodeBlock(blk))
		if err != nil {
			t.Fatal(err)
		}
		switchedB, err := b.InsertBlock(copyOf)
		if err != nil {
			t.Fatalf("B, block #%d: %v", blk.Header.Number, err)
		}
		if switchedA != switchedB {
			t.Fatalf("block #%d: A switched = %v, B switched = %v", blk.Header.Number, switchedA, switchedB)
		}
		return blk
	}

	// The seeded mix.
	rng := rand.New(rand.NewSource(23))
	var (
		sraIDs []types.Hash
		kinds  = map[types.TxKind]int{}
	)
	releaseSRA := func() *types.Transaction {
		sra := &types.SRA{
			Provider:     h.provider.Address(),
			Name:         "cam-fw",
			Version:      fmt.Sprintf("4.%d", len(sraIDs)),
			SystemHash:   types.HashBytes([]byte{0x51, byte(len(sraIDs))}),
			DownloadLink: fmt.Sprintf("sc://releases/cam-fw/4.%d", len(sraIDs)),
			Insurance:    types.EtherAmount(1000),
			Bounty:       types.EtherAmount(5),
		}
		if err := types.SignSRA(sra, h.provider); err != nil {
			t.Fatal(err)
		}
		tx := types.NewSRATx(sra, h.nextNonce(h.provider.Address()), 2_000_000, testGasPrice)
		if err := types.SignTx(tx, h.provider); err != nil {
			t.Fatal(err)
		}
		sraIDs = append(sraIDs, sra.ID)
		return tx
	}
	callTx := func(to types.Address, value types.Amount, data []byte) *types.Transaction {
		tx := &types.Transaction{
			Kind:     types.TxContractCall,
			Nonce:    h.nextNonce(h.provider.Address()),
			To:       to,
			Value:    value,
			GasLimit: 3_000_000,
			GasPrice: testGasPrice,
			Data:     data,
		}
		if err := types.SignTx(tx, h.provider); err != nil {
			t.Fatal(err)
		}
		return tx
	}
	// reportPair numbers the reveal right after its commitment, and a
	// reveal must land in a later block. So a block opens with the reveal
	// held over from the one before, and a commitment is the detector's
	// last transaction in its block.
	var reveal *types.Transaction
	mix := func(n int) []*types.Transaction {
		var txs []*types.Transaction
		if reveal != nil {
			txs, reveal = append(txs, reveal), nil
		}
		for i := rng.Intn(4); i >= 0; i-- {
			switch kind := rng.Intn(6); {
			case kind == 0:
				txs = append(txs, releaseSRA())
			case kind == 1 && len(sraIDs) > 0 && reveal == nil:
				itx, dtx := h.reportPair(sraIDs[rng.Intn(len(sraIDs))], fmt.Sprintf("V-%d-%d", n, i))
				txs, reveal = append(txs, itx), dtx
			case kind == 2 && len(sraIDs) > 0 && reveal == nil:
				// Revealed in the block that commits it: fails in its receipt.
				itx, dtx := h.reportPair(sraIDs[rng.Intn(len(sraIDs))], fmt.Sprintf("V-%d-%d-early", n, i))
				txs = append(txs, itx, dtx)
			case kind == 3 && len(sraIDs) > 0:
				// Fails inside its SRA's detection window and once the
				// insurance is reclaimed; pays the provider once after it.
				txs = append(txs, h.refundTx(sraIDs[rng.Intn(len(sraIDs))]))
			case kind == 4 && rng.Intn(2) == 0:
				// No such method on the SmartCrowd contract: fails too.
				txs = append(txs, callTx(contract.Address, 0, []byte{0xff}))
			case kind == 4:
				// A plain address holds no code: the call moves its value.
				txs = append(txs, callTx(types.Address{0xC0, byte(rng.Intn(4))}, types.Amount(rng.Intn(1000)), []byte{0, byte(rng.Intn(3))}))
			default:
				txs = append(txs, h.transferTx(h.provider, types.Address{byte(rng.Intn(8)) + 1}, types.Amount(rng.Intn(1000))))
			}
		}
		for _, tx := range txs {
			kinds[tx.Kind]++
		}
		return txs
	}

	for n := 1; n <= 24; n++ {
		land(build(a.Head(), mix(n)...))
	}

	// A build superseded before its seal lands, then a stale seal: F and P
	// are both built on H; F lands first (executed on A — P's build took
	// the slot) and becomes the head, P lands beside it (adopted on A, a
	// side block), and P2 on top of P pulls both chains over.
	if reveal != nil {
		land(build(a.Head(), reveal))
		kinds[reveal.Kind]++
		reveal = nil
	}
	hd := a.Head()
	nonce := h.nonces[h.provider.Address()]
	f := build(hd, h.transferTx(h.provider, types.Address{0xF}, 1))
	h.nonces[h.provider.Address()] = nonce
	p := build(hd, h.transferTx(h.provider, types.Address{0xA}, 2))
	f = land(f)
	if a.Head().ID() != f.ID() {
		t.Fatal("F did not become the head")
	}
	p = land(p)
	if a.Head().ID() != f.ID() || !b.HasBlock(p.ID()) {
		t.Fatal("the stale seal P should sit beside the head on both chains")
	}
	land(build(p, h.transferTx(h.provider, types.Address{0xB}, 3)))
	if v := a.CurrentView(); v.HeadNumber() != hd.Header.Number+2 || v.Confirmations(p.Txs[0].Hash()) != 2 || v.Confirmations(f.Txs[0].Hash()) != 0 {
		t.Fatal("the P branch did not take over")
	}
	for n := 30; n < 36; n++ {
		land(build(a.Head(), mix(n)...))
	}
	for kind := types.TxTransfer; kind <= types.TxDetailedReport; kind++ {
		if kind.Valid() && kinds[kind] == 0 {
			t.Fatalf("the mix never drew a %s", kind)
		}
	}

	// Every entry, canonical or not: same receipts, same post-state.
	if len(a.entries) != len(b.entries) {
		t.Fatalf("A holds %d blocks, B %d", len(a.entries), len(b.entries))
	}
	failed := 0
	for id, ea := range a.entries {
		eb := b.entries[id]
		if eb == nil {
			t.Fatalf("B lacks block %s", id.Short())
		}
		if !reflect.DeepEqual(ea.receipts(), eb.receipts()) {
			t.Fatalf("block #%d: receipts differ\nA %+v\nB %+v", ea.block().Header.Number, ea.receipts(), eb.receipts())
		}
		for _, r := range ea.receipts() {
			if !r.Success {
				failed++
			}
		}
		if ea.post().Root() != eb.post().Root() || !bytes.Equal(ea.post().Serialize(), eb.post().Serialize()) {
			t.Fatalf("block #%d: post-states differ", ea.block().Header.Number)
		}
	}
	if failed == 0 {
		t.Fatal("no failed transaction was compared")
	}
	assertChainsIdentical(t, a, b)
	assertViewMatchesChain(t, a, sraIDs)
	assertViewMatchesChain(t, b, sraIDs)
	assertIndexesMatchScan(t, a, sraIDs...)
	assertIndexesMatchScan(t, b, sraIDs...)
	if !reflect.DeepEqual(logA.records, logB.records) {
		t.Fatal("the two chains handed different bytes to storage")
	}
	// Refunds both failed and paid, so the mix crossed its windows.
	refunds := map[bool]int{}
	for _, blk := range a.CanonicalBlocks() {
		for _, tx := range blk.Txs {
			if tx.To == contract.Address && len(tx.Data) > 0 && tx.Data[0] == contract.MethodRefund {
				r, err := a.CurrentView().ReceiptOf(tx.Hash())
				if err != nil {
					t.Fatal(err)
				}
				refunds[r.Success]++
			}
		}
	}
	if refunds[true] == 0 || refunds[false] == 0 {
		t.Fatalf("refunds paid %d, failed %d: want both", refunds[true], refunds[false])
	}
	if got := a.Head().ID().String(); got != goldenHeads["sealer-importer-mix"] {
		t.Errorf("head = %s, golden %s", got, goldenHeads["sealer-importer-mix"])
	}
}

// TestStaleBuildIsReleased: once another block is committed on the parent
// a build was made for, the build can only land as a stale seal, so the
// chain lets go of its post-state instead of pinning it until the next
// BuildBlock.
func TestStaleBuildIsReleased(t *testing.T) {
	h := newHarness(t)
	head := h.chain.Head()
	peer, err := h.chain.BuildBlock(head.ID(), types.Address{0x9e}, head.Header.Time+15_350, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := h.chain.BuildBlock(head.ID(), h.miner.Address(), head.Header.Time+15_351, 1000, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.chain.InsertBlock(peer); err != nil {
		t.Fatal(err)
	}
	if h.chain.built != nil {
		t.Fatal("the build on the parent another block landed on is still held")
	}
}
