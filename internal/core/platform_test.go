package core

import (
	"errors"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/detection"
	"github.com/smartcrowd/smartcrowd/internal/txpool"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// buildPlatform assembles 2 providers + 2 detectors with funded wallets.
func buildPlatform(t *testing.T) *Platform {
	t.Helper()
	p := NewPlatform(Config{Seed: 1})
	if err := p.Fund(p.ProviderWallet("alpha").Address(), types.EtherAmount(10_000)); err != nil {
		t.Fatal(err)
	}
	if err := p.Fund(p.ProviderWallet("beta").Address(), types.EtherAmount(10_000)); err != nil {
		t.Fatal(err)
	}
	if err := p.Fund(p.DetectorWallet("fast").Address(), types.EtherAmount(100)); err != nil {
		t.Fatal(err)
	}
	if err := p.Fund(p.DetectorWallet("slow").Address(), types.EtherAmount(100)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"alpha", "beta"} {
		if _, err := p.AddProvider(name); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.AddDetector("fast", &detection.CapabilityEngine{Name: "fast", Capability: 1, Speed: 8, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddDetector("slow", &detection.CapabilityEngine{Name: "slow", Capability: 0.6, Speed: 1, Seed: 3}); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestPlatformFullWorkflow(t *testing.T) {
	p := buildPlatform(t)
	img := detection.GenerateImage("cam-fw", "4.2", detection.UniverseSpec{High: 4, Medium: 3, Low: 2, Seed: 55})
	sra, err := p.Release(0, img, types.EtherAmount(1000), types.EtherAmount(5))
	if err != nil {
		t.Fatal(err)
	}

	// Phase #1: announcement chained by the next block.
	if _, err := p.Mine(1); err != nil {
		t.Fatal(err)
	}
	// Phases #2-#4: detectors scan, commit, reveal; payouts execute.
	for i := 0; i < 5; i++ {
		if _, err := p.Mine(i % 2); err != nil {
			t.Fatal(err)
		}
	}

	ref, err := p.Reference(sra.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ref.ConfirmedVulns == 0 {
		t.Fatal("no vulnerabilities confirmed end-to-end")
	}
	if ref.SafeToDeploy {
		t.Error("consumer cleared a vulnerable release")
	}
	if ref.Provider != p.Providers()[0].Address() {
		t.Error("reference names the wrong accountable provider")
	}
	if ref.InsuranceRemaining >= types.EtherAmount(1000) {
		t.Error("no insurance was forfeited")
	}

	// The fast detector earned something.
	dets := p.Detectors()
	if dets[0].Earnings() == 0 {
		t.Error("full-capability detector earned nothing")
	}

	// Both provider chains converged.
	provs := p.Providers()
	if provs[0].Chain().Head().ID() != provs[1].Chain().Head().ID() {
		t.Error("provider chains diverged")
	}
}

func TestPlatformCleanReleaseStaysDeployable(t *testing.T) {
	p := buildPlatform(t)
	img := detection.GenerateImage("clean-fw", "1.0", detection.UniverseSpec{Seed: 9})
	sra, err := p.Release(1, img, types.EtherAmount(500), types.EtherAmount(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := p.Mine(i % 2); err != nil {
			t.Fatal(err)
		}
	}
	ref, err := p.Reference(sra.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ref.ConfirmedVulns != 0 || !ref.SafeToDeploy {
		t.Errorf("clean release flagged: %+v", ref)
	}
	if ref.InsuranceRemaining != types.EtherAmount(500) {
		t.Error("insurance forfeited without findings")
	}
}

func TestPlatformValidation(t *testing.T) {
	p := NewPlatform(Config{Seed: 2})
	if _, err := p.AddDetector("d", &detection.CapabilityEngine{}); !errors.Is(err, ErrNoProviders) {
		t.Errorf("err = %v, want ErrNoProviders", err)
	}
	if _, err := p.Consumer(0); !errors.Is(err, ErrNoProviders) {
		t.Errorf("err = %v, want ErrNoProviders", err)
	}
	if _, err := p.AddProvider("a"); err != nil {
		t.Fatal(err)
	}
	if err := p.Fund(types.Address{1}, 1); !errors.Is(err, ErrLocked) {
		t.Errorf("err = %v, want ErrLocked", err)
	}
	if _, err := p.Release(9, nil, 1, 1); !errors.Is(err, ErrUnknownProvider) {
		t.Errorf("err = %v, want ErrUnknownProvider", err)
	}
	if _, err := p.Mine(9); !errors.Is(err, ErrUnknownProvider) {
		t.Errorf("err = %v, want ErrUnknownProvider", err)
	}
}

func TestPlatformReferenceUnknownSRA(t *testing.T) {
	p := buildPlatform(t)
	if _, err := p.Reference(types.HashBytes([]byte("ghost"))); err == nil {
		t.Error("reference for unknown SRA succeeded")
	}
}

func TestPlatformForgerEarnsNothing(t *testing.T) {
	p := NewPlatform(Config{Seed: 3})
	if err := p.Fund(p.ProviderWallet("a").Address(), types.EtherAmount(10_000)); err != nil {
		t.Fatal(err)
	}
	if err := p.Fund(p.DetectorWallet("forger").Address(), types.EtherAmount(100)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddProvider("a"); err != nil {
		t.Fatal(err)
	}
	forger, err := p.AddDetector("forger", &detection.ForgingEngine{Name: "forger", Count: 5})
	if err != nil {
		t.Fatal(err)
	}
	img := detection.GenerateImage("fw", "1.0", detection.UniverseSpec{High: 2, Seed: 4})
	sra, err := p.Release(0, img, types.EtherAmount(100), types.EtherAmount(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := p.Mine(0); err != nil {
			t.Fatal(err)
		}
	}
	if forger.Earnings() != 0 {
		t.Errorf("forger earned %s", forger.Earnings())
	}
	ref, err := p.Reference(sra.ID)
	if err != nil {
		t.Fatal(err)
	}
	if ref.ConfirmedVulns != 0 {
		t.Error("forged findings chained")
	}
	if ref.InsuranceRemaining != types.EtherAmount(100) {
		t.Error("insurance forfeited for forged findings")
	}
}

// TestRefusedReleaseKeepsTheNonce: a release the pool refuses must not
// spend the provider's nonce, or every later release by that provider is
// admitted with a gap and never mined.
func TestRefusedReleaseKeepsTheNonce(t *testing.T) {
	p := NewPlatform(Config{Seed: 4})
	if err := p.Fund(p.ProviderWallet("acme").Address(), types.EtherAmount(100)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.AddProvider("acme"); err != nil {
		t.Fatal(err)
	}
	img := detection.GenerateImage("cam-fw", "1.0", detection.UniverseSpec{High: 1, Seed: 4})
	if _, err := p.Release(0, img, types.EtherAmount(1000), types.EtherAmount(5)); !errors.Is(err, txpool.ErrUnaffordable) {
		t.Fatalf("release insuring 1000 ETH from 100 ETH: %v, want ErrUnaffordable", err)
	}
	img = detection.GenerateImage("cam-fw", "1.1", detection.UniverseSpec{High: 1, Seed: 4})
	sra, err := p.Release(0, img, types.EtherAmount(10), types.EtherAmount(5))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := p.Mine(0); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.Reference(sra.ID); err != nil {
		t.Fatalf("the release after a refused one was never chained: %v", err)
	}
}

// TestRefusedReportIsResentOnceFunded: a detector whose first report is
// refused for want of gas money (0.005 ETH against the 0.0075 ETH a
// report's gas costs) has spent that report's nonce, and the pools admit
// its later reports with a gap. Once a transfer funds it, it broadcasts
// its unconfirmed reports again, so the refused one and everything after
// it is chained, revealed and paid.
func TestRefusedReportIsResentOnceFunded(t *testing.T) {
	p := NewPlatform(Config{Seed: 5})
	bank := wallet.NewDeterministic("bank")
	for addr, amount := range map[types.Address]types.Amount{
		p.ProviderWallet("acme").Address(): types.EtherAmount(10_000),
		p.DetectorWallet("poor").Address(): types.GWei * 5_000_000, // 0.005 ETH
		bank.Address():                     types.EtherAmount(100),
	} {
		if err := p.Fund(addr, amount); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.AddProvider("acme"); err != nil {
		t.Fatal(err)
	}
	det, err := p.AddDetector("poor", &detection.CapabilityEngine{Name: "poor", Capability: 1, Speed: 8, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	release := func(version string) *types.SRA {
		t.Helper()
		img := detection.GenerateImage("cam-fw", version, detection.UniverseSpec{High: 4, Medium: 3, Low: 2, Seed: 55})
		sra, err := p.Release(0, img, types.EtherAmount(100), types.EtherAmount(5))
		if err != nil {
			t.Fatal(err)
		}
		return sra
	}
	mine := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if _, err := p.Mine(0); err != nil {
				t.Fatal(err)
			}
		}
	}
	first := release("1.0")
	mine(2) // the SRA is chained; the detector's R† is refused
	addr := p.DetectorWallet("poor").Address()
	if got := p.Providers()[0].CurrentView().State().Nonce(addr); got != 0 {
		t.Fatalf("the unfunded detector chained %d transactions", got)
	}
	topUp := &types.Transaction{Kind: types.TxTransfer, To: addr, Value: types.EtherAmount(10), GasLimit: 21_000, GasPrice: contract.GasPrice}
	if err := types.SignTx(topUp, bank); err != nil {
		t.Fatal(err)
	}
	if err := p.Providers()[0].SubmitTx(topUp); err != nil {
		t.Fatal(err)
	}
	second := release("2.0")
	mine(12)
	// Both commitments and both reveals: nonces 0 to 3.
	if got := p.Providers()[0].CurrentView().State().Nonce(addr); got != 4 {
		t.Errorf("the funded detector's chained nonce is %d, want 4", got)
	}
	for _, sra := range []*types.SRA{first, second} {
		ref, err := p.Reference(sra.ID)
		if err != nil {
			t.Fatal(err)
		}
		if ref.ConfirmedVulns == 0 {
			t.Errorf("release %s: no report confirmed", sra.Version)
		}
	}
	if det.Earnings() == 0 {
		t.Error("the detector earned nothing")
	}
}
