package chain

import (
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// benchChain builds a chain plus a batch of signed transfers.
func benchChain(b *testing.B, txPerBlock int) (*Chain, [][]*types.Transaction, types.Address) {
	b.Helper()
	alice := wallet.NewDeterministic("alice")
	verifier := contract.VerifierFunc(func(types.Hash, types.Finding) bool { return true })
	cfg := DefaultConfig(contract.New(contract.DefaultParams(), verifier))
	cfg.SkipPoWCheck = true
	cfg.Alloc = map[types.Address]types.Amount{alice.Address(): types.EtherAmount(1_000_000)}
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	batches := make([][]*types.Transaction, b.N)
	nonce := uint64(0)
	for i := range batches {
		batch := make([]*types.Transaction, txPerBlock)
		for j := range batch {
			tx := &types.Transaction{
				Kind:     types.TxTransfer,
				Nonce:    nonce,
				To:       types.Address{1},
				Value:    1,
				GasLimit: 21_000,
				GasPrice: 50,
			}
			if err := types.SignTx(tx, alice); err != nil {
				b.Fatal(err)
			}
			nonce++
			batch[j] = tx
		}
		batches[i] = batch
	}
	return c, batches, wallet.NewDeterministic("miner").Address()
}

// BenchmarkInsertEmptyBlock measures pure consensus overhead per block.
func BenchmarkInsertEmptyBlock(b *testing.B) {
	c, _, miner := benchChain(b, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		head := c.Head()
		blk, err := c.BuildBlock(head.ID(), miner, head.Header.Time+15_000, 1000, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.InsertBlock(blk); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInsertBlock20Transfers measures end-to-end throughput with a
// realistic per-block transaction load (build + execute + verify + index).
func BenchmarkInsertBlock20Transfers(b *testing.B) {
	c, batches, miner := benchChain(b, 20)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		head := c.Head()
		blk, err := c.BuildBlock(head.ID(), miner, head.Header.Time+15_000, 1000, batches[i])
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.InsertBlock(blk); err != nil {
			b.Fatal(err)
		}
	}
}
