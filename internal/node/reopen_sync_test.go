package node

import (
	"bytes"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/store"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// TestColdNodeSyncsFromReopenedNode: a node reopened on its datadir holds
// the blocks below its snapshot as headers and serves their bytes from
// its block log. A cold node that joins it — snapshot, then the block
// prefix in ranges — reaches the same head and state root, and holds
// every block byte for byte as imported.
func TestColdNodeSyncsFromReopenedNode(t *testing.T) {
	alloc, payer, _ := fundedActors()
	sn := newSyncNet(t)
	sn.cfg.Alloc = alloc
	dir := t.TempDir()
	open := func() *ProviderNode {
		t.Helper()
		disk, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		cfg := sn.cfg
		cfg.Storage = disk
		p, err := NewProvider("pa", wallet.NewDeterministic("pa"), cfg, sn.net)
		if err != nil {
			t.Fatal(err)
		}
		return p
	}

	a := open()
	var want [][]byte
	for i := 0; i < 40; i++ {
		tx := &types.Transaction{
			Kind:     types.TxTransfer,
			Nonce:    uint64(i),
			To:       types.Address{0xc0, byte(i)},
			Value:    types.GWei,
			GasLimit: 21_000,
			GasPrice: 50 * types.GWei,
		}
		if err := types.SignTx(tx, payer); err != nil {
			t.Fatal(err)
		}
		if err := a.SubmitTx(tx); err != nil {
			t.Fatal(err)
		}
		sn.now += 15_000
		blk, err := a.SealAndPublish(pow.AsBuilt{}, sn.now, 1000, 0, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(blk.Txs) != 1 {
			t.Fatalf("block #%d sealed %d transactions, want 1", blk.Header.Number, len(blk.Txs))
		}
		want = append(want, types.EncodeBlock(blk))
	}
	if err := a.Chain().Close(); err != nil {
		t.Fatal(err)
	}

	reopened := open()
	defer reopened.Chain().Close()
	if rec := reopened.Chain().CurrentView().RecordsRange(1, 1)[0]; rec.Stored == nil {
		t.Fatal("block #1 of the reopened node is not read from its log")
	}
	b := sn.provider("pb")
	sn.announce(reopened, b)
	modes := sn.driveUntilConverged(reopened, b, 400)
	if !modes[SyncSnap] {
		t.Errorf("the cold node never entered snap mode (saw %v)", modes)
	}
	if got, want := b.Chain().State().Root(), reopened.Chain().State().Root(); got != want {
		t.Errorf("synced state root %s, source %s", got.Short(), want.Short())
	}
	for i, enc := range want {
		id := b.Chain().CurrentView().RecordsRange(uint64(i+1), uint64(i+1))[0].Block.ID()
		got, err := b.Chain().BlockByID(id)
		if err != nil || !bytes.Equal(got, enc) {
			t.Fatalf("block #%d on the synced node differs from the one imported (%v)", i+1, err)
		}
	}
}
