package chain

import (
	"fmt"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// benchConfig is a pow.Sampled chain config whose verifier accepts
// every finding, over n distinct pre-funded accounts: benchAccount(i)
// holds i+1 gwei.
func benchConfig(n int) Config {
	cfg := DefaultConfig(contract.New(contract.DefaultParams(), contract.VerifierFunc(func(types.Hash, types.Finding) bool { return true })))
	cfg.Rule = pow.Sampled
	cfg.Alloc = make(map[types.Address]types.Amount, n)
	for i := 0; i < n; i++ {
		cfg.Alloc[benchAccount(i)] = types.Amount(i + 1)
	}
	return cfg
}

// benchAccount is benchAlloc's i-th address.
func benchAccount(i int) types.Address {
	h := types.HashBytes([]byte{0xB0, byte(i >> 16), byte(i >> 8), byte(i)})
	var a types.Address
	copy(a[:], h[:20])
	return a
}

// bench10kChain is a chain over 10,000 allocated accounts, with b.N blocks
// of twenty signed transfers from a funded sender.
func bench10kChain(b *testing.B) (*Chain, [][]*types.Transaction, types.Address) {
	b.Helper()
	alice := wallet.NewDeterministic("alice")
	cfg := benchConfig(10_000)
	cfg.Alloc[alice.Address()] = types.EtherAmount(1_000_000)
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}

	const txPerBlock = 20
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

// BenchmarkInsertBlock10kAccounts measures block insertion (build +
// execute + root + verify + index) against a world of 10,000 allocated
// accounts — the scale where the seed's full-rehash Root() and deep
// Copy() dominated per-block cost.
func BenchmarkInsertBlock10kAccounts(b *testing.B) {
	c, batches, miner := bench10kChain(b)
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

// BenchmarkSealOwnBlock is a sealer's round without the nonce search:
// build on the head, put a nonce in the header, insert the block. The
// import commits what the build computed, so a round costs one execution
// and one dirty Root, not two. Two blocks: 20 transfers over 10,000
// accounts (the account trie's path copies), and one R* against a contract
// account holding 10,000 storage slots (the digest that walks them all).
func BenchmarkSealOwnBlock(b *testing.B) {
	seal := func(b *testing.B, c *Chain, miner types.Address, batches [][]*types.Transaction) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			head := c.Head()
			blk, err := c.BuildBlock(head.ID(), miner, head.Header.Time+15_000, 1000, batches[i])
			if err != nil {
				b.Fatal(err)
			}
			sealed := blk.Header
			sealed.Nonce = uint64(i) + 1
			if _, err := c.InsertBlock(&types.Block{Header: sealed, Txs: blk.Txs}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("20-transfers/10k-accounts", func(b *testing.B) {
		c, batches, miner := bench10kChain(b)
		seal(b, c, miner, batches)
	})
	b.Run("one-reveal/10k-slots", func(b *testing.B) {
		h := &harness{
			t:        &testing.T{},
			provider: wallet.NewDeterministic("provider"),
			detector: wallet.NewDeterministic("detector"),
			miner:    wallet.NewDeterministic("miner"),
			nonces:   make(map[types.Address]uint64),
		}
		verifier := contract.VerifierFunc(func(types.Hash, types.Finding) bool { return true })
		cfg := DefaultConfig(contract.New(contract.DefaultParams(), verifier))
		cfg.Rule = pow.Sampled
		cfg.Alloc = map[types.Address]types.Amount{
			h.provider.Address(): types.EtherAmount(1_000_000),
			h.detector.Address(): types.EtherAmount(1_000_000),
		}
		c, err := New(cfg)
		if err != nil {
			b.Fatal(err)
		}
		h.chain = c

		// 2,000 announcements at five slots each, fifty to a block.
		var sras []types.Hash
		for len(sras) < 2_000 {
			var txs []*types.Transaction
			for j := 0; j < 50; j++ {
				sra := &types.SRA{
					Provider:     h.provider.Address(),
					Name:         "cam-fw",
					Version:      fmt.Sprintf("5.%d", len(sras)),
					SystemHash:   types.HashBytes([]byte(fmt.Sprintf("image-5.%d", len(sras)))),
					DownloadLink: fmt.Sprintf("sc://releases/cam-fw/5.%d", len(sras)),
					Insurance:    types.EtherAmount(100),
					Bounty:       types.EtherAmount(1),
				}
				if err := types.SignSRA(sra, h.provider); err != nil {
					b.Fatal(err)
				}
				tx := types.NewSRATx(sra, h.nextNonce(h.provider.Address()), 2_000_000, testGasPrice)
				if err := types.SignTx(tx, h.provider); err != nil {
					b.Fatal(err)
				}
				txs, sras = append(txs, tx), append(sras, sra.ID)
			}
			h.extend(txs...)
		}
		// Every R† up front, so a measured block is exactly one R*. The
		// detector's commitments take nonces 0…N−1 and its reveals follow.
		commits := make([]*types.Transaction, b.N)
		reveals := make([][]*types.Transaction, b.N)
		for i := range commits {
			itx, dtx := h.reportPair(sras[i%len(sras)], fmt.Sprintf("V-%d", i))
			itx.Nonce, dtx.Nonce = uint64(i), uint64(b.N+i)
			for _, tx := range []*types.Transaction{itx, dtx} {
				if err := types.SignTx(tx, h.detector); err != nil {
					b.Fatal(err)
				}
			}
			commits[i], reveals[i] = itx, []*types.Transaction{dtx}
		}
		for len(commits) > 0 {
			n := min(len(commits), 500)
			h.extend(commits[:n]...)
			commits = commits[n:]
		}
		seal(b, c, h.miner.Address(), reveals)
	})
}

// BenchmarkReorgFlip measures fork choice: each iteration extends the
// currently losing branch past the leader, forcing setHead to truncate
// and rebuild the canonical suffix and both indexes.
func BenchmarkReorgFlip(b *testing.B) {
	verifier := contract.VerifierFunc(func(types.Hash, types.Finding) bool { return true })
	cfg := DefaultConfig(contract.New(contract.DefaultParams(), verifier))
	cfg.Rule = pow.Sampled
	cfg.Alloc = map[types.Address]types.Amount{}
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	miner := wallet.NewDeterministic("miner").Address()

	extendOn := func(parent *types.Block, difficulty uint64) *types.Block {
		blk, err := c.BuildBlock(parent.ID(), miner, parent.Header.Time+15_000, difficulty, nil)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.InsertBlock(blk); err != nil {
			b.Fatal(err)
		}
		return blk
	}

	// Common prefix, then two competing branch tips.
	base := c.Genesis()
	for i := 0; i < 8; i++ {
		base = extendOn(base, 1000)
	}
	tdAt := func(blk *types.Block) uint64 {
		c.mu.RLock()
		defer c.mu.RUnlock()
		return c.entries[blk.ID()].totalDif
	}
	tipA := extendOn(base, 1000)
	tipB := base

	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Extend whichever branch is behind with just enough difficulty to
		// overtake — every insert flips the head.
		lead, trail := tipA, tipB
		if tdAt(tipB) > tdAt(tipA) {
			lead, trail = tipB, tipA
		}
		next := extendOn(trail, tdAt(lead)-tdAt(trail)+1)
		if c.Head().ID() != next.ID() {
			b.Fatal("extension did not flip the head")
		}
		if trail == tipA || tipA == tipB {
			tipA = next
		} else {
			tipB = next
		}
	}
}

// BenchmarkDetectionQuery5000Blocks compares reading an SRA's reference
// from the contract's records in state against the linear scan of
// canonical receipts it replaced, on a 5,000-block chain carrying one
// report transaction per block.
func BenchmarkDetectionQuery5000Blocks(b *testing.B) {
	h := &harness{
		t:        &testing.T{},
		provider: wallet.NewDeterministic("provider"),
		detector: wallet.NewDeterministic("detector"),
		miner:    wallet.NewDeterministic("miner"),
		nonces:   make(map[types.Address]uint64),
	}
	verifier := contract.VerifierFunc(func(types.Hash, types.Finding) bool { return true })
	cfg := DefaultConfig(contract.New(contract.DefaultParams(), verifier))
	cfg.Rule = pow.Sampled
	cfg.Alloc = map[types.Address]types.Amount{
		h.provider.Address(): types.EtherAmount(50_000),
		h.detector.Address(): types.EtherAmount(5_000),
	}
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	h.chain = c

	// Ten SRAs sharing the chain, then alternating commit/reveal blocks:
	// 2,500 report pairs spread round-robin, so every block carries one
	// report transaction and each SRA accumulates 500 records. The query
	// targets one SRA; the scan still decodes all 5,000 report txs.
	sras := make([]*types.SRA, 10)
	for i := range sras {
		sra := &types.SRA{
			Provider:     h.provider.Address(),
			Name:         "cam-fw",
			Version:      fmt.Sprintf("3.%d", i),
			SystemHash:   types.HashBytes([]byte{0x51, byte(i)}),
			DownloadLink: fmt.Sprintf("sc://releases/cam-fw/3.%d", i),
			Insurance:    types.EtherAmount(2_000),
			Bounty:       types.EtherAmount(1),
		}
		if err := types.SignSRA(sra, h.provider); err != nil {
			b.Fatal(err)
		}
		sraTx := types.NewSRATx(sra, h.nextNonce(h.provider.Address()), 2_000_000, testGasPrice)
		if err := types.SignTx(sraTx, h.provider); err != nil {
			b.Fatal(err)
		}
		h.extend(sraTx)
		sras[i] = sra
	}
	for i := 0; i < 2_500; i++ {
		itx, dtx := h.reportPair(sras[i%len(sras)].ID, fmt.Sprintf("V-%d", i))
		h.extend(itx)
		h.extend(dtx)
	}
	target := sras[0].ID
	want := c.scanReference(target)
	if want.Reports != 500 {
		b.Fatalf("setup recorded %d reports for the target SRA, want 500", want.Reports)
	}

	b.Run("state", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := c.referenceOf(target); got != want {
				b.Fatalf("reference = %+v, want %+v", got, want)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := c.scanReference(target); got != want {
				b.Fatalf("reference = %+v, want %+v", got, want)
			}
		}
	})
}
