package chain

import (
	"fmt"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// benchAlloc derives n distinct pre-funded addresses for a genesis alloc.
func benchAlloc(n int) map[types.Address]types.Amount {
	alloc := make(map[types.Address]types.Amount, n)
	for i := 0; i < n; i++ {
		h := types.HashBytes([]byte{0xB0, byte(i >> 16), byte(i >> 8), byte(i)})
		var a types.Address
		copy(a[:], h[:20])
		alloc[a] = types.Amount(i + 1)
	}
	return alloc
}

// BenchmarkInsertBlock10kAccounts measures block insertion (build +
// execute + root + verify + index) against a world of 10,000 allocated
// accounts — the scale where the seed's full-rehash Root() and deep
// Copy() dominated per-block cost.
func BenchmarkInsertBlock10kAccounts(b *testing.B) {
	alice := wallet.NewDeterministic("alice")
	verifier := contract.VerifierFunc(func(types.Hash, types.Finding) bool { return true })
	cfg := DefaultConfig(contract.New(contract.DefaultParams(), verifier))
	cfg.SkipPoWCheck = true
	cfg.Alloc = benchAlloc(10_000)
	cfg.Alloc[alice.Address()] = types.EtherAmount(1_000_000)
	c, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	miner := wallet.NewDeterministic("miner").Address()

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

// BenchmarkReorgFlip measures fork choice: each iteration extends the
// currently losing branch past the leader, forcing setHead to truncate
// and rebuild the canonical suffix and both indexes.
func BenchmarkReorgFlip(b *testing.B) {
	verifier := contract.VerifierFunc(func(types.Hash, types.Finding) bool { return true })
	cfg := DefaultConfig(contract.New(contract.DefaultParams(), verifier))
	cfg.SkipPoWCheck = true
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

// BenchmarkDetectionQuery5000Blocks compares the incrementally maintained
// detection index against the pre-index linear scan on a 5,000-block
// chain carrying one report transaction per block.
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
	cfg.SkipPoWCheck = true
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
	wantRecords := len(c.detectionResultsScan(target))
	if wantRecords != 500 {
		b.Fatalf("setup recorded %d reports for the target SRA, want 500", wantRecords)
	}

	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := c.DetectionResults(target); len(got) != wantRecords {
				b.Fatalf("records = %d, want %d", len(got), wantRecords)
			}
		}
	})
	b.Run("scan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if got := c.detectionResultsScan(target); len(got) != wantRecords {
				b.Fatalf("records = %d, want %d", len(got), wantRecords)
			}
		}
	})
}
