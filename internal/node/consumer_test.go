package node

import (
	"fmt"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// BenchmarkConsumerLookup measures the consumer's authoritative reference
// for an SRA with 48 reports on a 49-block chain: one contract record
// read from the head state, however many reports the release drew.
func BenchmarkConsumerLookup(b *testing.B) {
	provider, detector := wallet.NewDeterministic("provider"), wallet.NewDeterministic("detector")
	sc := contract.New(contract.DefaultParams(), contract.VerifierFunc(func(types.Hash, types.Finding) bool { return true }))
	cfg := chain.DefaultConfig(sc)
	cfg.Rule = pow.Sampled
	cfg.Alloc = map[types.Address]types.Amount{
		provider.Address(): types.EtherAmount(5000),
		detector.Address(): types.EtherAmount(500),
	}
	c, err := chain.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	var nonce uint64
	extend := func(w *wallet.Wallet, tx *types.Transaction) {
		if err := types.SignTx(tx, w); err != nil {
			b.Fatal(err)
		}
		head := c.Head()
		blk, err := c.BuildBlock(head.ID(), types.Address{0x4d}, head.Header.Time+15_350, 1000, []*types.Transaction{tx})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := c.InsertBlock(blk); err != nil {
			b.Fatal(err)
		}
	}

	sra := &types.SRA{
		Provider:     provider.Address(),
		Name:         "cam-fw",
		Version:      "3.1",
		SystemHash:   types.HashBytes([]byte("image-3.1")),
		DownloadLink: "sc://releases/cam-fw/3.1",
		Insurance:    types.EtherAmount(1000),
		Bounty:       types.EtherAmount(5),
	}
	if err := types.SignSRA(sra, provider); err != nil {
		b.Fatal(err)
	}
	extend(provider, types.NewSRATx(sra, 0, 2_000_000, 50*types.GWei))
	for i := 0; i < 24; i++ {
		detailed := &types.DetailedReport{
			SRAID:    sra.ID,
			Detector: detector.Address(),
			Wallet:   detector.Address(),
			Findings: []types.Finding{{VulnID: fmt.Sprintf("V-%d", i), Severity: types.Severity(1 + i%3), Evidence: "poc"}},
		}
		if err := types.SignDetailedReport(detailed, detector); err != nil {
			b.Fatal(err)
		}
		initial := &types.InitialReport{
			SRAID:      sra.ID,
			Detector:   detector.Address(),
			DetailHash: detailed.CommitmentHash(),
			Wallet:     detector.Address(),
		}
		if err := types.SignInitialReport(initial, detector); err != nil {
			b.Fatal(err)
		}
		extend(detector, types.NewInitialReportTx(initial, nonce, 150_000, 50*types.GWei))
		extend(detector, types.NewDetailedReportTx(detailed, nonce+1, 150_000, 50*types.GWei))
		nonce += 2
	}

	consumer := NewConsumer(c.CurrentView(), sc, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, err := consumer.Lookup(sra.ID)
		if err != nil || ref.Reports != 48 || ref.ConfirmedVulns != 24 {
			b.Fatalf("reference %+v, %v: want 48 reports confirming 24", ref, err)
		}
	}
}
