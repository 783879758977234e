package chain

import (
	"bytes"
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// redecoded returns blocks decoded from their encodings: fresh objects
// with cold caches, as a peer sends them.
func redecoded(t *testing.T, blocks []*types.Block) []*types.Block {
	t.Helper()
	out := make([]*types.Block, len(blocks))
	for i, blk := range blocks {
		var err error
		if out[i], err = types.DecodeBlock(types.EncodeBlock(blk)); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestRunStopsBeforeAFailingBlock: in a batch of 50, whose blocks form one
// run, block 40 has a wrong state root, or fails to execute. The run ends
// before it: blocks 1–39 commit, the head's post-state is block 39's —
// not the run's state, which block 40 wrote on — and the valid block 40
// and the rest import after.
func TestRunStopsBeforeAFailingBlock(t *testing.T) {
	h, batch := transferBatch(t, 50, 2)
	for _, tc := range []struct {
		name  string
		spoil func(bad *types.Block)
		want  error
	}{
		{"state-root", func(bad *types.Block) { bad.Header.StateRoot = types.HashBytes([]byte("corrupt")) }, ErrStateMismatch},
		{"execution", func(bad *types.Block) {
			tx := &types.Transaction{Kind: types.TxTransfer, Nonce: 10_000, To: types.Address{0xba, 0xd}, Value: 1, GasLimit: 21_000, GasPrice: testGasPrice}
			if err := types.SignTx(tx, h.provider); err != nil {
				t.Fatal(err)
			}
			bad.Txs = append(bad.Txs, tx)
			bad.Header.TxRoot = types.ComputeTxRoot(bad.Txs)
		}, ErrBadNonce},
	} {
		t.Run(tc.name, func(t *testing.T) {
			blocks := redecoded(t, batch)
			tc.spoil(blocks[39])
			c := freshChain(t, h)
			n, err := c.InsertChain(blocks)
			if !errors.Is(err, tc.want) || n != 39 {
				t.Fatalf("import processed %d blocks and returned %v; want 39 and %v", n, err, tc.want)
			}
			want := batch[38]
			if v := c.CurrentView(); v.HeadID() != want.ID() || v.State().Root() != want.Header.StateRoot {
				t.Fatalf("head #%d with root %s; want #39 with its header's root %s",
					v.HeadNumber(), v.State().Root().Short(), want.Header.StateRoot.Short())
			}
			oracle, err := h.chain.StateAt(want.ID())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(c.CurrentView().State().Serialize(), oracle.Serialize()) {
				t.Fatal("the head's post-state differs from block 39's")
			}
			if n, err := c.InsertChain(redecoded(t, batch[39:])); err != nil || n != 11 {
				t.Fatalf("the valid blocks 40–50 after the failure: %d imported, %v", n, err)
			}
			assertChainsIdentical(t, c, h.chain)
		})
	}
}

// TestSideBranchOffARunsInterior: block 20 sits inside a committed run
// and holds no post-state. A side block on it imports on the state
// rebuilt from the run's parent, and the branch it starts, imported as a
// batch, takes the head once heavier, at the state a serial replay of the
// same blocks (the harness chain, which imported each alone) has.
func TestSideBranchOffARunsInterior(t *testing.T) {
	const forkAt, perBlock = 20, 2
	h, batch := transferBatch(t, 50, perBlock)
	c := freshChain(t, h)
	if _, err := c.InsertChain(batch); err != nil {
		t.Fatal(err)
	}
	if post := c.entries[batch[forkAt-1].ID()].post(); post != nil {
		t.Fatalf("block #%d, inside the run, holds a post-state", forkAt)
	}

	h.nonces[h.provider.Address()] = forkAt * perBlock
	var side []*types.Block
	for parent, i := batch[forkAt-1].ID(), 0; i < 35; i++ {
		blk := h.extendOn(parent, 1000, h.transferTx(h.provider, types.Address{0x5e}, 2))
		side = append(side, blk)
		parent = blk.ID()
	}
	if h.chain.Head().ID() != side[len(side)-1].ID() {
		t.Fatal("setup: the heavier side branch did not take the serial chain's head")
	}
	side = redecoded(t, side)
	if switched, err := c.InsertBlock(side[0]); err != nil || switched {
		t.Fatalf("the side block on #%d: switched %v, %v; want stored beside the head", forkAt, switched, err)
	}
	if _, err := c.InsertChain(side[1:]); err != nil {
		t.Fatal(err)
	}
	if got, want := c.CurrentView().State().Root(), side[len(side)-1].Header.StateRoot; got != want {
		t.Fatalf("after the reorg the head state's root is %s, want %s", got.Short(), want.Short())
	}
	assertChainsIdentical(t, c, h.chain)
}

// snapLog is a memLog that keeps every snapshot saved, by height. The
// chain saves them from background goroutines.
type snapLog struct {
	memLog
	mu    sync.Mutex
	snaps map[uint64]StoredSnapshot
}

func (s *snapLog) SaveSnapshot(snap StoredSnapshot) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snaps[snap.Height] = snap
	return nil
}

// TestRunsEndAtSnapshotHeights: with SnapshotInterval 10, a 45-block batch
// commits as runs ending at #10, #20, #30, #40 and #45, and each periodic
// snapshot is the one a serial import of the same blocks saves.
func TestRunsEndAtSnapshotHeights(t *testing.T) {
	h, batch := transferBatch(t, 45, 2)
	open := func() (*Chain, *snapLog) {
		log := &snapLog{snaps: map[uint64]StoredSnapshot{}}
		cfg := h.chain.cfg
		cfg.Storage, cfg.SnapshotInterval = log, 10
		c, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return c, log
	}
	run, runLog := open()
	if _, err := run.InsertChain(redecoded(t, batch)); err != nil {
		t.Fatal(err)
	}
	serial, serialLog := open()
	for _, blk := range redecoded(t, batch) {
		if _, err := serial.InsertBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	assertChainsIdentical(t, run, serial)
	var heads []string
	for _, rec := range runLog.records {
		if bytes.HasPrefix(rec, []byte("head ")) {
			heads = append(heads, string(rec))
		}
	}
	var want []string
	for _, n := range []int{10, 20, 30, 40, 45} {
		want = append(want, fmt.Sprintf("head %s %d", batch[n-1].ID(), n))
	}
	if !slices.Equal(heads, want) {
		t.Fatalf("the batch committed heads %q, want %q", heads, want)
	}
	for _, c := range []*Chain{run, serial} {
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []uint64{10, 20, 30, 40} {
		got, ok := runLog.snaps[n]
		ref, refOK := serialLog.snaps[n]
		if !ok || !refOK {
			t.Fatalf("snapshot at #%d: saved by the run import %v, by the serial one %v", n, ok, refOK)
		}
		if got.BlockID != ref.BlockID || got.StateRoot != ref.StateRoot || !bytes.Equal(got.State, ref.State) {
			t.Fatalf("the snapshot at #%d differs from the serial import's", n)
		}
	}
}
