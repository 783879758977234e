package chain

import (
	"errors"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// liveChain builds a chain that enforces real proof-of-work AND the
// difficulty-retarget rule — the configuration an actual deployment runs.
func liveChain(t *testing.T) (*Chain, pow.DifficultyConfig) {
	t.Helper()
	verifier := contract.VerifierFunc(func(types.Hash, types.Finding) bool { return true })
	rule := pow.DifficultyConfig{
		TargetBlockTime: 15,
		BoundDivisor:    64, // aggressive retarget so tests see movement
		Minimum:         32, // tiny so CPU sealing is instant
	}
	alice := wallet.NewDeterministic("alice")
	cfg := DefaultConfig(contract.New(contract.DefaultParams(), verifier))
	cfg.EnforceDifficulty = true
	cfg.DifficultyRule = rule
	cfg.Alloc = map[types.Address]types.Amount{alice.Address(): types.EtherAmount(1000)}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, rule
}

// mineLive builds, CPU-seals and inserts the next block.
func mineLive(t *testing.T, c *Chain, intervalMillis uint64, txs []*types.Transaction) *types.Block {
	t.Helper()
	head := c.Head()
	timestamp := head.Header.Time + intervalMillis
	difficulty := c.cfg.ExpectedDifficulty(&head.Header, timestamp)
	miner := wallet.NewDeterministic("miner").Address()
	blk, err := c.BuildBlock(head.ID(), miner, timestamp, difficulty, txs)
	if err != nil {
		t.Fatal(err)
	}
	sealer := &pow.CPUSealer{Threads: 2}
	sealed, err := sealer.Seal(blk.Header, nil)
	if err != nil {
		t.Fatal(err)
	}
	blk = &types.Block{Header: sealed, Txs: blk.Txs}
	if _, err := c.InsertBlock(blk); err != nil {
		t.Fatal(err)
	}
	return blk
}

// TestLivePoWEndToEnd mines real proof-of-work blocks carrying a transfer
// through the full consensus pipeline: CPU nonce search, PoW verification,
// difficulty retargeting, execution, rewards.
func TestLivePoWEndToEnd(t *testing.T) {
	c, _ := liveChain(t)
	alice := wallet.NewDeterministic("alice")
	payee := wallet.NewDeterministic("payee").Address()

	tx := &types.Transaction{
		Kind:     types.TxTransfer,
		Nonce:    0,
		To:       payee,
		Value:    types.EtherAmount(3),
		GasLimit: 21_000,
		GasPrice: 50 * types.GWei,
	}
	if err := types.SignTx(tx, alice); err != nil {
		t.Fatal(err)
	}
	mineLive(t, c, 15_000, []*types.Transaction{tx})
	for i := 0; i < 3; i++ {
		mineLive(t, c, 15_000, nil)
	}
	if c.HeadNumber() != 4 {
		t.Fatalf("head %d, want 4", c.HeadNumber())
	}
	if got := c.State().Balance(payee); got != types.EtherAmount(3) {
		t.Errorf("payee balance %s", got)
	}
	// Every header truly meets its PoW.
	for _, blk := range c.CanonicalBlocks()[1:] {
		if !blk.Header.MeetsPoW() {
			t.Errorf("block %d fails PoW", blk.Header.Number)
		}
	}
}

func TestLivePoWRejectsUnminedBlock(t *testing.T) {
	c, _ := liveChain(t)
	head := c.Head()
	timestamp := head.Header.Time + 15_000
	difficulty := c.cfg.ExpectedDifficulty(&head.Header, timestamp)
	blk, err := c.BuildBlock(head.ID(), wallet.NewDeterministic("miner").Address(),
		timestamp, difficulty, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Find a nonce that does NOT satisfy PoW.
	for blk.Header.MeetsPoW() {
		blk.Header.Nonce++
	}
	if _, err := c.InsertBlock(blk); !errors.Is(err, types.ErrBlockBadPoW) {
		t.Errorf("err = %v, want ErrBlockBadPoW", err)
	}
}

func TestDifficultyRuleEnforced(t *testing.T) {
	c, rule := liveChain(t)
	mineLive(t, c, 15_000, nil)
	head := c.Head()
	timestamp := head.Header.Time + 15_000
	wrong := c.cfg.ExpectedDifficulty(&head.Header, timestamp) + 1

	blk, err := c.BuildBlock(head.ID(), wallet.NewDeterministic("miner").Address(),
		timestamp, wrong, nil)
	if err != nil {
		t.Fatal(err)
	}
	sealer := &pow.CPUSealer{Threads: 2}
	sealed, err := sealer.Seal(blk.Header, nil)
	if err != nil {
		t.Fatal(err)
	}
	blk = &types.Block{Header: sealed, Txs: blk.Txs}
	if _, err := c.InsertBlock(blk); !errors.Is(err, ErrBadDifficulty) {
		t.Errorf("err = %v, want ErrBadDifficulty", err)
	}
	_ = rule
}

func TestDifficultyRetargetsWithBlockTimes(t *testing.T) {
	c, rule := liveChain(t)
	// Blocks arriving much faster than the 15 s target push difficulty up.
	first := mineLive(t, c, 15_000, nil)
	base := first.Header.Difficulty
	var fast *types.Block
	for i := 0; i < 5; i++ {
		fast = mineLive(t, c, 1_000, nil) // 1 s blocks
	}
	if fast.Header.Difficulty <= base {
		t.Errorf("difficulty %d did not rise after fast blocks (base %d)",
			fast.Header.Difficulty, base)
	}
	// Slow blocks pull it back toward the floor.
	var slow *types.Block
	for i := 0; i < 30; i++ {
		slow = mineLive(t, c, 600_000, nil) // 10-minute gaps
	}
	if slow.Header.Difficulty != rule.Minimum {
		t.Errorf("difficulty %d did not fall to the %d floor after slow blocks",
			slow.Header.Difficulty, rule.Minimum)
	}
}
