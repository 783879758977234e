package incentive

import (
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/types"
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

func TestNetCanBeNegative(t *testing.T) {
	b := Balance{Punishment: types.EtherAmount(100), Mining: types.EtherAmount(30)}
	if net := b.Net(); net != -70 {
		t.Errorf("net = %v, want -70", net)
	}
	// Net = 10+1+10+2 − 4 − 1 = 18: escrow and transfers are no flow.
	b = Balance{
		Mining: types.EtherAmount(10), Fees: types.EtherAmount(1), Bounty: types.EtherAmount(10),
		Refund: types.EtherAmount(2), Punishment: types.EtherAmount(4), Gas: types.EtherAmount(1),
		In: types.EtherAmount(7), Out: types.EtherAmount(509),
	}
	if net := b.Net(); net != 18 {
		t.Errorf("net = %v, want 18", net)
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
