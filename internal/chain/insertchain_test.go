package chain

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/state"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// buildTestChain grows a harness chain with a mix of transfers, one SRA
// and report pairs, then returns every non-genesis block re-decoded from
// its wire encoding — fresh objects with cold hash/sender caches, as a
// syncing node would see them.
func buildTestChain(t *testing.T, blocks int) (*harness, []*types.Block) {
	t.Helper()
	h := newHarness(t)
	sraTx, sra := h.sraTx(types.EtherAmount(1000), types.EtherAmount(5))
	h.extend(sraTx)
	for i := 1; i < blocks; i++ {
		switch i % 3 {
		case 0:
			h.extend(h.transferTx(h.provider, types.Address{7}, 5))
		case 1:
			itx, dtx := h.reportPair(sra.ID, fmt.Sprintf("CVE-%d", i))
			h.extend(itx)
			h.extend(dtx)
			i++ // reportPair consumed two heights
		case 2:
			h.extend(h.transferTx(h.provider, types.Address{9}, 3),
				h.transferTx(h.detector, types.Address{7}, 1))
		}
	}

	src := h.chain.CanonicalBlocks()[1:]
	out := make([]*types.Block, len(src))
	for i, blk := range src {
		decoded, err := types.DecodeBlock(types.EncodeBlock(blk))
		if err != nil {
			t.Fatal(err)
		}
		out[i] = decoded
	}
	return h, out
}

// freshChain creates an empty chain with the same config/genesis as h's.
func freshChain(t *testing.T, h *harness) *Chain {
	t.Helper()
	c, err := New(h.chain.Config())
	if err != nil {
		t.Fatal(err)
	}
	if c.Genesis().ID() != h.chain.Genesis().ID() {
		t.Fatal("fresh chain genesis differs")
	}
	return c
}

// assertChainsIdentical requires the two chains to agree bit-for-bit on
// canonical head, per-height block IDs and state roots, and every
// transaction receipt.
func assertChainsIdentical(t *testing.T, a, b *Chain) {
	t.Helper()
	if a.Head().ID() != b.Head().ID() {
		t.Fatalf("heads differ: %s vs %s", a.Head().ID().Short(), b.Head().ID().Short())
	}
	if a.TotalDifficulty() != b.TotalDifficulty() {
		t.Fatalf("total difficulty differs: %d vs %d", a.TotalDifficulty(), b.TotalDifficulty())
	}
	ca, cb := a.CanonicalBlocks(), b.CanonicalBlocks()
	if len(ca) != len(cb) {
		t.Fatalf("canonical lengths differ: %d vs %d", len(ca), len(cb))
	}
	for i := range ca {
		if ca[i].ID() != cb[i].ID() {
			t.Fatalf("block %d ids differ", i)
		}
		sa, err := a.StateAt(ca[i].ID())
		if err != nil {
			t.Fatal(err)
		}
		sb, err := b.StateAt(cb[i].ID())
		if err != nil {
			t.Fatal(err)
		}
		if sa.Root() != sb.Root() {
			t.Fatalf("block %d state roots differ", i)
		}
		for _, tx := range ca[i].Txs {
			ra, err := a.ReceiptOf(tx.Hash())
			if err != nil {
				t.Fatal(err)
			}
			rb, err := b.ReceiptOf(tx.Hash())
			if err != nil {
				t.Fatal(err)
			}
			if ra.Success != rb.Success || ra.GasUsed != rb.GasUsed ||
				ra.Fee != rb.Fee || ra.Err != rb.Err ||
				ra.Payout.Paid != rb.Payout.Paid {
				t.Fatalf("block %d tx %s receipts differ: %+v vs %+v",
					i, tx.Hash().Short(), ra, rb)
			}
		}
	}
}

// TestInsertChainMatchesSequentialInsert is the pipeline's equivalence
// oracle: importing a chain through the batched two-stage pipeline must
// be bit-identical — head ID, state roots, receipts — to sequential
// InsertBlock calls.
func TestInsertChainMatchesSequentialInsert(t *testing.T) {
	h, wire := buildTestChain(t, 24)

	serial := freshChain(t, h)
	for _, blk := range wire {
		decoded, err := types.DecodeBlock(types.EncodeBlock(blk))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := serial.InsertBlock(decoded); err != nil {
			t.Fatal(err)
		}
	}

	pipelined := freshChain(t, h)
	n, err := pipelined.InsertChain(wire)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(wire) {
		t.Fatalf("InsertChain processed %d of %d blocks", n, len(wire))
	}

	assertChainsIdentical(t, h.chain, serial)
	assertChainsIdentical(t, serial, pipelined)
}

// TestInsertChainSkipsKnownBlocks verifies that re-importing an already
// synced segment is a benign no-op for the batch path while single-block
// InsertBlock still reports ErrKnownBlock for its callers to classify.
func TestInsertChainSkipsKnownBlocks(t *testing.T) {
	h, wire := buildTestChain(t, 10)
	c := freshChain(t, h)

	// Pre-seed the first half via the single-block oracle.
	for _, blk := range wire[:len(wire)/2] {
		if _, err := c.InsertBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	n, err := c.InsertChain(wire)
	if err != nil {
		t.Fatalf("re-import with known prefix failed: %v", err)
	}
	if n != len(wire) {
		t.Fatalf("processed %d of %d", n, len(wire))
	}
	assertChainsIdentical(t, h.chain, c)

	// Full duplicate batch: still benign.
	if n, err := c.InsertChain(wire); err != nil || n != len(wire) {
		t.Fatalf("duplicate batch: n=%d err=%v", n, err)
	}
	// The single-block path keeps its hard error for callers that care.
	if _, err := c.InsertBlock(wire[0]); !errors.Is(err, ErrKnownBlock) {
		t.Fatalf("InsertBlock duplicate err = %v, want ErrKnownBlock", err)
	}
}

// TestInsertChainAbortsOnInvalidBlock checks that a corrupted block stops
// the batch at its index, keeps the valid prefix, and never commits the
// suffix.
func TestInsertChainAbortsOnInvalidBlock(t *testing.T) {
	h, wire := buildTestChain(t, 12)
	bad := len(wire) / 2
	wire[bad].Header.StateRoot = types.HashBytes([]byte("corrupt"))

	c := freshChain(t, h)
	n, err := c.InsertChain(wire)
	if err == nil {
		t.Fatal("corrupted batch imported without error")
	}
	if n != bad {
		t.Fatalf("processed %d blocks, want %d", n, bad)
	}
	if got := c.HeadNumber(); got != uint64(bad) {
		t.Fatalf("head %d, want %d", got, bad)
	}
	// The suffix (children of the corrupted block) must not have landed.
	for _, blk := range wire[bad:] {
		if c.HasBlock(blk.ID()) {
			t.Fatalf("block #%d past the corruption was stored", blk.Header.Number)
		}
	}
}

// TestInsertChainRejectsBadStatelessBlock exercises the stage-1 parallel
// path: a transaction tampered after signing must fail stateless
// verification before any lock or execution work happens.
func TestInsertChainRejectsBadStatelessBlock(t *testing.T) {
	h, wire := buildTestChain(t, 6)
	victim := wire[2]
	if len(victim.Txs) == 0 {
		t.Fatal("test block carries no txs")
	}
	victim.Txs[0].Value += 1 // breaks the signature and the tx root

	c := freshChain(t, h)
	n, err := c.InsertChain(wire)
	if err == nil {
		t.Fatal("tampered batch imported without error")
	}
	if n != 2 {
		t.Fatalf("processed %d blocks, want 2", n)
	}
}

// TestConcurrentForkInsertionStress races batch and single-block inserts
// of competing forks against readers of every query surface. Run under
// -race it is the pipeline's locking-discipline check; the final
// assertions pin fork choice and index consistency regardless of
// interleaving.
func TestConcurrentForkInsertionStress(t *testing.T) {
	const forks = 4
	const depth = 6

	// Build the shared prefix (genesis + one SRA block), then each fork on
	// its own scratch chain so the shared chain sees them only at race
	// time. Later forks declare higher difficulty, making the expected
	// winner unique and deterministic.
	h := newHarness(t)
	sraTx, sra := h.sraTx(types.EtherAmount(1000), types.EtherAmount(5))
	prefix := h.extend(sraTx)

	forkBlocks := make([][]*types.Block, forks)
	for f := 0; f < forks; f++ {
		scratch := freshChain(t, h)
		if _, err := scratch.InsertBlock(prefix); err != nil {
			t.Fatal(err)
		}
		// Distinct timestamps per fork keep the branches distinct; distinct
		// difficulty makes total difficulty strictly ordered across forks.
		step := uint64(15_000 + f)
		difficulty := uint64(1000 + 100*f)
		nonces := map[types.Address]uint64{
			h.provider.Address(): h.nonces[h.provider.Address()],
		}
		for d := 0; d < depth; d++ {
			head := scratch.Head()
			n := nonces[h.provider.Address()]
			nonces[h.provider.Address()] = n + 1
			tx := &types.Transaction{
				Kind:     types.TxTransfer,
				Nonce:    n,
				To:       types.Address{byte(f + 1)},
				Value:    types.Amount(d + 1),
				GasLimit: 21_000,
				GasPrice: testGasPrice,
			}
			if err := types.SignTx(tx, h.provider); err != nil {
				t.Fatal(err)
			}
			blk, err := scratch.BuildBlock(head.ID(), h.miner.Address(),
				head.Header.Time+step, difficulty, []*types.Transaction{tx})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := scratch.InsertBlock(blk); err != nil {
				t.Fatal(err)
			}
			forkBlocks[f] = append(forkBlocks[f], blk)
		}
	}

	// Race: one writer per fork (even forks batch via InsertChain, odd
	// forks walk block-by-block) against readers hammering the query
	// surfaces until the writers finish.
	var wg sync.WaitGroup
	stop := make(chan struct{})
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
				_ = h.chain.DetectionResults(sra.ID)
				st := h.chain.State()
				_ = st.Balance(h.provider.Address())
				_ = h.chain.Head()
				_ = h.chain.CanonicalBlocks()
				_ = h.chain.TotalDifficulty()
			}
		}()
	}
	var writers sync.WaitGroup
	for f := 0; f < forks; f++ {
		writers.Add(1)
		go func(f int) {
			defer writers.Done()
			if f%2 == 0 {
				if _, err := h.chain.InsertChain(forkBlocks[f]); err != nil {
					t.Errorf("fork %d batch insert: %v", f, err)
				}
				return
			}
			for _, blk := range forkBlocks[f] {
				if _, err := h.chain.InsertBlock(blk); err != nil && !errors.Is(err, ErrKnownBlock) {
					t.Errorf("fork %d insert #%d: %v", f, blk.Header.Number, err)
				}
			}
		}(f)
	}
	writers.Wait()
	close(stop)
	wg.Wait()

	// Fork choice must have settled on the highest-difficulty branch.
	want := forkBlocks[forks-1][depth-1]
	if got := h.chain.Head().ID(); got != want.ID() {
		t.Fatalf("head %s, want fork %d tip %s", got.Short(), forks-1, want.ID().Short())
	}
	// The incrementally maintained detection index must agree with the
	// linear-scan oracle after all the concurrent reorgs.
	idx := h.chain.DetectionResults(sra.ID)
	scan := h.chain.detectionResultsScan(sra.ID)
	if len(idx) != len(scan) {
		t.Fatalf("detection index has %d records, scan %d", len(idx), len(scan))
	}
	for i := range idx {
		if idx[i].BlockNumber != scan[i].BlockNumber || idx[i].Tx.Hash() != scan[i].Tx.Hash() {
			t.Fatalf("detection record %d differs between index and scan", i)
		}
	}
}

// TestInsertChainEmptyAndNil pins the degenerate inputs.
func TestInsertChainEmptyAndNil(t *testing.T) {
	h := newHarness(t)
	if n, err := h.chain.InsertChain(nil); n != 0 || err != nil {
		t.Fatalf("nil batch: n=%d err=%v", n, err)
	}
	if n, err := h.chain.InsertChain([]*types.Block{}); n != 0 || err != nil {
		t.Fatalf("empty batch: n=%d err=%v", n, err)
	}
}

// TestSnapshotNowBesideInsertChain serves snapshots while a batch import
// runs — what a peer's MsgSnapRequest does to a syncing node. SnapshotNow
// serializes with no chain lock held, so under the race detector this
// proves a committed post-state is never written again; and every blob
// must restore to the root its own header commits to, whichever block
// was head when it was taken.
func TestSnapshotNowBesideInsertChain(t *testing.T) {
	h, blocks := buildTestChain(t, 60)
	c := freshChain(t, h)

	imported := make(chan error, 1)
	go func() {
		_, err := c.InsertChain(blocks)
		imported <- err
	}()

	heights := make(map[uint64]struct{})
	for importing := true; importing; {
		select {
		case err := <-imported:
			if err != nil {
				t.Fatal(err)
			}
			importing = false // one more snapshot, of the final head
		default:
		}
		snap := c.SnapshotNow()
		blk, err := c.BlockByID(snap.BlockID)
		if err != nil {
			t.Fatalf("snapshot names unknown block: %v", err)
		}
		if blk.Header.Number != snap.Height || blk.Header.StateRoot != snap.StateRoot {
			t.Fatalf("snapshot at #%d disagrees with its header", snap.Height)
		}
		st, err := state.Restore(snap.State)
		if err != nil {
			t.Fatalf("snapshot at #%d does not restore: %v", snap.Height, err)
		}
		if root := st.Root(); root != blk.Header.StateRoot {
			t.Fatalf("snapshot at #%d restores to %s, header commits to %s",
				snap.Height, root.Short(), blk.Header.StateRoot.Short())
		}
		heights[snap.Height] = struct{}{}
	}
	if _, ok := heights[uint64(len(blocks))]; !ok {
		t.Fatalf("never snapshotted the final head #%d", len(blocks))
	}
	t.Logf("snapshotted %d distinct heads during import", len(heights))
}
