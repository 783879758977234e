package incentive

import (
	"sort"
	"sync"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

func TestDetectorIncentiveEq7(t *testing.T) {
	mu := types.EtherAmount(5)
	// 4 vulnerabilities, 75% accepted → 15 ether.
	if got := DetectorIncentive(mu, 4, 0.75); got != types.EtherAmount(15) {
		t.Errorf("in† = %s, want 15 ETH", got)
	}
	// ρ clamps.
	if got := DetectorIncentive(mu, 2, 1.5); got != types.EtherAmount(10) {
		t.Errorf("clamped ρ: %s", got)
	}
	if got := DetectorIncentive(mu, 2, -1); got != 0 {
		t.Errorf("negative ρ: %s", got)
	}
}

func TestProviderIncentiveEq8(t *testing.T) {
	// 3 blocks × 5 ether + 10 reports × 0.011 ether.
	got := ProviderIncentive(3, types.EtherAmount(5), 11*types.Finny, 10)
	want := types.EtherAmount(15) + 110*types.Finny
	if got != want {
		t.Errorf("in* = %s, want %s", got, want)
	}
}

func TestProviderPunishmentEq9(t *testing.T) {
	mu := types.EtherAmount(5)
	deploy := 95 * types.Finny
	got := ProviderPunishment(mu, []uint64{2, 1, 0, 3}, deploy)
	want := types.EtherAmount(30) + deploy
	if got != want {
		t.Errorf("pu = %s, want %s", got, want)
	}
	if got := ProviderPunishment(mu, nil, deploy); got != deploy {
		t.Errorf("no detections: pu = %s, want deploy cost only", got)
	}
}

func TestDetectorCostEq10(t *testing.T) {
	c := 11 * types.Finny
	psi := types.Finny
	got := DetectorCost(3, c, 0.5, psi)
	want := 3 * (c + psi/2)
	if got != want {
		t.Errorf("co = %s, want %s", got, want)
	}
}

func TestTrackerFlows(t *testing.T) {
	tr := NewTracker()
	a := wallet.NewDeterministic("a").Address()

	tr.Record(a, FlowMining, types.EtherAmount(5))
	tr.Record(a, FlowMining, types.EtherAmount(5))
	tr.Record(a, FlowFees, types.EtherAmount(1))
	tr.Record(a, FlowBounty, types.EtherAmount(10))
	tr.Record(a, FlowRefund, types.EtherAmount(2))
	tr.Record(a, FlowPunishment, types.EtherAmount(4))
	tr.Record(a, FlowGas, types.EtherAmount(1))
	tr.RecordAccepted(a, 3)

	b := tr.Of(a)
	if b.Mining != types.EtherAmount(10) || b.Blocks != 2 {
		t.Errorf("mining %s over %d blocks", b.Mining, b.Blocks)
	}
	if b.Fees != types.EtherAmount(1) || b.Bounty != types.EtherAmount(10) ||
		b.Refund != types.EtherAmount(2) || b.Punishment != types.EtherAmount(4) ||
		b.Gas != types.EtherAmount(1) || b.Accepted != 3 {
		t.Errorf("balance %+v", b)
	}
	// Net = 10+1+10+2 − 4 − 1 = 18.
	if net := b.Net(); net != 18 {
		t.Errorf("net = %v, want 18", net)
	}
}

func TestTrackerUnknownAddressZero(t *testing.T) {
	tr := NewTracker()
	if b := tr.Of(wallet.NewDeterministic("ghost").Address()); b.Net() != 0 {
		t.Error("unknown address has non-zero balance")
	}
}

func TestTrackerAddressesDeterministic(t *testing.T) {
	tr := NewTracker()
	for i := 0; i < 5; i++ {
		tr.Record(wallet.NewDeterministic(string(rune('a'+i))).Address(), FlowGas, 1)
	}
	a, b := tr.Addresses(), tr.Addresses()
	if len(a) != 5 {
		t.Fatalf("addresses = %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("address order unstable")
		}
	}
}

func TestTrackerConcurrent(t *testing.T) {
	tr := NewTracker()
	a := wallet.NewDeterministic("x").Address()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				tr.Record(a, FlowFees, 1)
			}
		}()
	}
	wg.Wait()
	if got := tr.Of(a).Fees; got != 800 {
		t.Errorf("fees = %d, want 800", got)
	}
}

func TestFlowStrings(t *testing.T) {
	names := map[Flow]string{
		FlowMining: "mining", FlowFees: "fees", FlowBounty: "bounty",
		FlowPunishment: "punishment", FlowGas: "gas", FlowRefund: "refund",
		Flow(99): "unknown",
	}
	for f, want := range names {
		if f.String() != want {
			t.Errorf("%d.String() = %s, want %s", f, f.String(), want)
		}
	}
}

func TestNetCanBeNegative(t *testing.T) {
	tr := NewTracker()
	a := wallet.NewDeterministic("loser").Address()
	tr.Record(a, FlowPunishment, types.EtherAmount(100))
	tr.Record(a, FlowMining, types.EtherAmount(30))
	if net := tr.Of(a).Net(); net != -70 {
		t.Errorf("net = %v, want -70", net)
	}
}

// DetectorIncentive computes Eq. 7: in†_i = μ · n_i · ρ_i, a detector's
// expected earnings for one SRA given bounty μ, n detected vulnerabilities
// and acceptance proportion ρ.
func DetectorIncentive(mu types.Amount, n uint64, rho float64) types.Amount {
	if rho < 0 {
		rho = 0
	}
	if rho > 1 {
		rho = 1
	}
	return types.Amount(float64(mu) * float64(n) * rho)
}

// ProviderIncentive computes Eq. 8: in*_i = χ·ν + ψ·ω, a mining provider's
// earnings for χ block rewards worth ν each plus ω report fees worth ψ
// each.
func ProviderIncentive(chi uint64, nu types.Amount, psi types.Amount, omega uint64) types.Amount {
	return types.Amount(chi)*nu + psi*types.Amount(omega)
}

// ProviderPunishment computes Eq. 9: pu_i = μ·Σ n_j·ρ_j + cp_i, the
// insurance forfeited across detectors plus the contract deployment cost.
func ProviderPunishment(mu types.Amount, acceptedPerDetector []uint64, deployCost types.Amount) types.Amount {
	var total uint64
	for _, n := range acceptedPerDetector {
		total += n
	}
	return mu*types.Amount(total) + deployCost
}

// DetectorCost computes Eq. 10: co_i = n_i·(c + ρ_i·ψ), the cost of
// submitting n reports at submission cost c with average accepted-report
// fee ρ·ψ.
func DetectorCost(n uint64, submitCost types.Amount, rho float64, psi types.Amount) types.Amount {
	return types.Amount(n) * (submitCost + types.Amount(rho*float64(psi)))
}

// Addresses lists tracked addresses deterministically.
func (t *Tracker) Addresses() []types.Address {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]types.Address, 0, len(t.balances))
	for a := range t.balances {
		out = append(out, a)
	}
	sort.Slice(out, func(i, j int) bool {
		for k := range out[i] {
			if out[i][k] != out[j][k] {
				return out[i][k] < out[j][k]
			}
		}
		return false
	})
	return out
}
