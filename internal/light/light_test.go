package light

import (
	"errors"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// fullNode builds a full chain with a few blocks of transfers and returns
// it with the sender wallet.
func fullNode(t *testing.T, blocks int) (*chain.Chain, *wallet.Wallet) {
	t.Helper()
	alice := wallet.NewDeterministic("alice")
	verifier := contract.VerifierFunc(func(types.Hash, types.Finding) bool { return true })
	cfg := chain.DefaultConfig(contract.New(contract.DefaultParams(), verifier))
	cfg.Rule = pow.Sampled
	cfg.Alloc = map[types.Address]types.Amount{alice.Address(): types.EtherAmount(1000)}
	c, err := chain.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	miner := wallet.NewDeterministic("miner").Address()
	for n := 0; n < blocks; n++ {
		tx := &types.Transaction{
			Kind:     types.TxTransfer,
			Nonce:    uint64(n),
			To:       types.Address{1},
			Value:    1,
			GasLimit: 21_000,
			GasPrice: 50,
		}
		if err := types.SignTx(tx, alice); err != nil {
			t.Fatal(err)
		}
		head := c.Head()
		blk, err := c.BuildBlock(head.ID(), miner, head.Header.Time+15_000, 1000, []*types.Transaction{tx})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.InsertBlock(blk); err != nil {
			t.Fatal(err)
		}
	}
	return c, alice
}

// syncLight replays a full node's canonical headers into a light chain.
func syncLight(t *testing.T, c *chain.Chain) *HeaderChain {
	t.Helper()
	blocks := c.CanonicalBlocks()
	hc := NewHeaderChain(blocks[0].Header, pow.Sampled)
	for _, blk := range blocks[1:] {
		if err := hc.AddHeader(blk.Header); err != nil {
			t.Fatalf("sync header %d: %v", blk.Header.Number, err)
		}
	}
	return hc
}

func TestHeaderSyncTracksHead(t *testing.T) {
	c, _ := fullNode(t, 5)
	hc := syncLight(t, c)
	if hc.HeadNumber() != 5 {
		t.Errorf("light head %d, want 5", hc.HeadNumber())
	}
	lightHead := hc.Head()
	if lightHead.ID() != c.Head().ID() {
		t.Error("light head diverges from full node")
	}
	id, err := hc.CanonicalID(3)
	if err != nil {
		t.Fatal(err)
	}
	full, _ := c.CurrentView().BlockByNumber(3)
	if id != full.ID() {
		t.Error("canonical index wrong")
	}
}

// TestAddHeaderValidation: the light client refuses a bad link with the
// pow sentinel and accepts a header it already holds. Every fault under
// every rule, held to the chain's InsertBlock, is TestHeaderRuleVerdicts'
// (internal/chain).
func TestAddHeaderValidation(t *testing.T) {
	c, _ := fullNode(t, 2)
	blocks := c.CanonicalBlocks()
	hc := NewHeaderChain(blocks[0].Header, pow.Sampled)

	t.Run("unknown parent", func(t *testing.T) {
		if err := hc.AddHeader(blocks[2].Header); !errors.Is(err, pow.ErrUnknownParent) {
			t.Errorf("err = %v", err)
		}
	})
	if err := hc.AddHeader(blocks[1].Header); err != nil {
		t.Fatal(err)
	}
	t.Run("bad number", func(t *testing.T) {
		h := blocks[2].Header
		h.Number = 7
		if err := hc.AddHeader(h); !errors.Is(err, pow.ErrBadNumber) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("stale timestamp", func(t *testing.T) {
		h := blocks[2].Header
		h.Time = blocks[1].Header.Time
		if err := hc.AddHeader(h); !errors.Is(err, pow.ErrBadTimestamp) {
			t.Errorf("err = %v", err)
		}
	})
	t.Run("idempotent", func(t *testing.T) {
		if err := hc.AddHeader(blocks[1].Header); err != nil {
			t.Errorf("re-adding a known header failed: %v", err)
		}
	})
}

// TestPoWEnforcedWhenNotSkipped: under pow.Declared the light client holds
// each nonce to its header's declared difficulty.
func TestPoWEnforcedWhenNotSkipped(t *testing.T) {
	c, _ := fullNode(t, 1)
	blocks := c.CanonicalBlocks()
	hc := NewHeaderChain(blocks[0].Header, pow.Declared)
	h := blocks[1].Header
	h.Difficulty = 1 << 60 // unmeetable with the stored nonce
	if err := hc.AddHeader(h); !errors.Is(err, pow.ErrBadPoW) {
		t.Errorf("err = %v, want ErrBadPoW", err)
	}
}

func TestLightForkChoice(t *testing.T) {
	c, _ := fullNode(t, 3)
	blocks := c.CanonicalBlocks()
	hc := syncLight(t, c)

	// A heavier competing header at height 1 reorganizes the light chain.
	rival := types.Header{
		ParentID:   blocks[0].Header.ID(),
		Number:     1,
		Time:       blocks[0].Header.Time + 1,
		Difficulty: 10_000, // out-weighs the 3×1000 canonical branch
		Miner:      wallet.NewDeterministic("rival").Address(),
		TxRoot:     types.ComputeTxRoot(nil),
	}
	if err := hc.AddHeader(rival); err != nil {
		t.Fatal(err)
	}
	head := hc.Head()
	if head.ID() != rival.ID() {
		t.Error("heavier branch did not become light head")
	}
	// Old canonical entries above the fork are gone.
	if _, err := hc.CanonicalID(2); !errors.Is(err, ErrUnknownHeader) {
		t.Error("stale canonical height survived reorg")
	}
	if hc.Confirmations(blocks[3].Header.ID()) != 0 {
		t.Error("orphaned header still reports confirmations")
	}
}

func TestTxProofRoundtrip(t *testing.T) {
	c, _ := fullNode(t, 4)
	hc := syncLight(t, c)
	blk, err := c.CurrentView().BlockByNumber(2)
	if err != nil {
		t.Fatal(err)
	}

	proof, err := BuildTxProof(blk, 0)
	if err != nil {
		t.Fatal(err)
	}
	body := types.EncodeTx(blk.Txs[0])
	tx, err := hc.VerifyTxWithBody(proof, body, 1)
	if err != nil {
		t.Fatalf("valid proof rejected: %v", err)
	}
	if tx.Hash() != blk.Txs[0].Hash() {
		t.Error("verified tx differs from original")
	}
}

func TestTxProofRejectsTampering(t *testing.T) {
	c, alice := fullNode(t, 4)
	hc := syncLight(t, c)
	blk, _ := c.CurrentView().BlockByNumber(2)
	proof, err := BuildTxProof(blk, 0)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("forged body", func(t *testing.T) {
		forged := &types.Transaction{
			Kind: types.TxTransfer, Nonce: 9, To: types.Address{2},
			Value: types.EtherAmount(999), GasLimit: 21_000, GasPrice: 50,
		}
		if err := types.SignTx(forged, alice); err != nil {
			t.Fatal(err)
		}
		if _, err := hc.VerifyTxWithBody(proof, types.EncodeTx(forged), 1); err == nil {
			t.Error("forged body accepted under a real proof")
		}
	})

	t.Run("tampered leaf", func(t *testing.T) {
		bad := proof
		bad.TxBytes = append([]byte(nil), proof.TxBytes...)
		bad.TxBytes[0] ^= 0xFF
		if err := hc.VerifyProof(bad, 1); !errors.Is(err, ErrProofRejected) {
			t.Errorf("err = %v", err)
		}
	})

	t.Run("unknown block", func(t *testing.T) {
		bad := proof
		bad.BlockID = types.HashBytes([]byte("ghost"))
		if err := hc.VerifyProof(bad, 1); !errors.Is(err, ErrUnknownHeader) {
			t.Errorf("err = %v", err)
		}
	})
}

func TestTxProofConfirmationThreshold(t *testing.T) {
	c, _ := fullNode(t, 4)
	hc := syncLight(t, c)
	blk, _ := c.CurrentView().BlockByNumber(4) // the head block: 1 confirmation
	proof, err := BuildTxProof(blk, 0)
	if err != nil {
		t.Fatal(err)
	}
	if err := hc.VerifyProof(proof, 1); err != nil {
		t.Errorf("1-conf proof rejected: %v", err)
	}
	if err := hc.VerifyProof(proof, 6); !errors.Is(err, ErrFutureThreshold) {
		t.Errorf("err = %v, want ErrFutureThreshold", err)
	}
}

func TestTxProofNotCanonical(t *testing.T) {
	c, _ := fullNode(t, 3)
	hc := syncLight(t, c)
	blocks := c.CanonicalBlocks()
	blk2 := blocks[2]
	proof, err := BuildTxProof(blk2, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Reorg the light chain away from the proven block.
	rival := types.Header{
		ParentID:   blocks[0].Header.ID(),
		Number:     1,
		Time:       blocks[0].Header.Time + 1,
		Difficulty: 10_000,
		TxRoot:     types.ComputeTxRoot(nil),
	}
	if err := hc.AddHeader(rival); err != nil {
		t.Fatal(err)
	}
	if err := hc.VerifyProof(proof, 1); !errors.Is(err, ErrNotCanonical) {
		t.Errorf("err = %v, want ErrNotCanonical", err)
	}
}

func TestBuildTxProofBounds(t *testing.T) {
	c, _ := fullNode(t, 1)
	blk, _ := c.CurrentView().BlockByNumber(1)
	if _, err := BuildTxProof(blk, -1); err == nil {
		t.Error("negative index accepted")
	}
	if _, err := BuildTxProof(blk, len(blk.Txs)); err == nil {
		t.Error("out-of-range index accepted")
	}
}
