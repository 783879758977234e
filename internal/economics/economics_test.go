package economics

import (
	"math"
	"testing"
	"time"
)

func TestTotalDetectionCapabilityEq11(t *testing.T) {
	dc, err := TotalDetectionCapability([]float64{0.8, 0.6, 0.4}, []float64{0.5, 0.3, 0.2})
	if err != nil {
		t.Fatal(err)
	}
	want := 0.8*0.5 + 0.6*0.3 + 0.4*0.2
	if math.Abs(dc-want) > 1e-12 {
		t.Errorf("DC_T = %v, want %v", dc, want)
	}
}

func TestTotalDetectionCapabilityGrowsWithDetectors(t *testing.T) {
	// More detectors (Σρ → 1) raise DC_T toward 1 — the monotonicity the
	// paper argues motivates participation.
	few, _ := TotalDetectionCapability([]float64{0.9}, []float64{0.3})
	many, _ := TotalDetectionCapability(
		[]float64{0.9, 0.9, 0.9}, []float64{0.3, 0.3, 0.3})
	if many <= few {
		t.Errorf("DC_T did not grow: %v vs %v", few, many)
	}
	if many > 1 {
		t.Errorf("DC_T exceeds 1: %v", many)
	}
}

func TestTotalDetectionCapabilityValidation(t *testing.T) {
	if _, err := TotalDetectionCapability([]float64{0.5}, []float64{0.5, 0.5}); err == nil {
		t.Error("length mismatch accepted")
	}
	if _, err := TotalDetectionCapability([]float64{1.5}, []float64{0.5}); err == nil {
		t.Error("out-of-range capability accepted")
	}
	if _, err := TotalDetectionCapability([]float64{0.5, 0.5}, []float64{0.7, 0.7}); err == nil {
		t.Error("Σρ > 1 accepted")
	}
}

func TestDetectorBalanceEq13(t *testing.T) {
	m := DetectorModel{
		VulnsPerSRA:     10,
		CapabilityShare: 0.2,
		Rho:             0.8,
		BountyEther:     5,
		FeeEther:        0.011,
		SubmitCostEther: 0.011,
		SRAPeriod:       10 * time.Minute,
	}
	// One SRA period: N·ξ·[ρ(μ−ψ)−c] = 10·0.2·(0.8·4.989−0.011).
	want := 10 * 0.2 * (0.8*(5-0.011) - 0.011)
	got := m.Balance(10 * time.Minute)
	if math.Abs(got-want) > 1e-9 {
		t.Errorf("bd = %v, want %v", got, want)
	}
	// Two periods → double.
	if math.Abs(m.Balance(20*time.Minute)-2*want) > 1e-9 {
		t.Error("balance not linear in horizon")
	}
	// Zero period guards.
	if (DetectorModel{}).Balance(time.Minute) != 0 {
		t.Error("zero-period model should balance 0")
	}
}

func TestDetectorBalanceGrowsWithCapability(t *testing.T) {
	base := DetectorModel{
		VulnsPerSRA: 10, Rho: 0.8, BountyEther: 5,
		FeeEther: 0.011, SubmitCostEther: 0.011, SRAPeriod: 10 * time.Minute,
	}
	weak, strong := base, base
	weak.CapabilityShare = 1.0 / 36
	strong.CapabilityShare = 8.0 / 36
	ratio := strong.Balance(10*time.Minute) / weak.Balance(10*time.Minute)
	if math.Abs(ratio-8) > 1e-9 {
		t.Errorf("8-thread/1-thread ratio %v, want 8 (paper measures ≈7.8)", ratio)
	}
}

func TestProviderIncentivesLinearInTimeAndShare(t *testing.T) {
	m := PaperProviderModel(0.149, 1000)
	ten := m.Incentives(10 * time.Minute)
	twenty := m.Incentives(20 * time.Minute)
	if math.Abs(twenty-2*ten) > 1e-9 {
		t.Error("incentives not linear in time")
	}
	m2 := PaperProviderModel(0.298, 1000)
	if math.Abs(m2.Incentives(10*time.Minute)-2*ten) > 1e-9 {
		t.Error("incentives not linear in hash share")
	}
}

func TestPunishmentShape(t *testing.T) {
	m := PaperProviderModel(0.149, 1000)
	// Fig. 4(b): punishment grows with VP; larger insurance steepens it.
	if m.Punishment(0.2) <= m.Punishment(0.1) {
		t.Error("punishment not increasing in VP")
	}
	big := PaperProviderModel(0.149, 1500)
	small := PaperProviderModel(0.149, 500)
	if big.Punishment(0.1)-big.Punishment(0) <= small.Punishment(0.1)-small.Punishment(0) {
		t.Error("larger insurance does not steepen punishment")
	}
	// Negative VP clamps.
	if m.Punishment(-1) != m.Punishment(0) {
		t.Error("negative VP not clamped")
	}
}

func TestVPBMatchesPaperCalibration(t *testing.T) {
	// Fig. 5(a): VPB(14.9% HP, 10 min, 1000 ether) ≈ 0.038.
	m := PaperProviderModel(0.149, 1000)
	vpb := m.VPB(10 * time.Minute)
	if math.Abs(vpb-0.038) > 0.002 {
		t.Errorf("VPB = %v, want ≈ 0.038", vpb)
	}
}

func TestVPBMonotoneInHashPowerAndTime(t *testing.T) {
	// Fig. 5(a): higher HP ⇒ larger VPB; longer horizon ⇒ larger VPB.
	shares := []float64{0.101, 0.118, 0.149, 0.225, 0.263}
	prev := -1.0
	for _, s := range shares {
		vpb := PaperProviderModel(s, 1000).VPB(10 * time.Minute)
		if vpb <= prev {
			t.Errorf("VPB not increasing in hash share at %v", s)
		}
		prev = vpb
	}
	m := PaperProviderModel(0.149, 1000)
	if m.VPB(20*time.Minute) <= m.VPB(10*time.Minute) ||
		m.VPB(30*time.Minute) <= m.VPB(20*time.Minute) {
		t.Error("VPB not increasing in horizon")
	}
}

func TestBalanceZeroAtVPB(t *testing.T) {
	m := PaperProviderModel(0.149, 1000)
	for _, horizon := range []time.Duration{10 * time.Minute, 20 * time.Minute, 30 * time.Minute} {
		vpb := m.VPB(horizon)
		if b := m.Balance(vpb, horizon); math.Abs(b) > 1e-6 {
			t.Errorf("balance at VPB (%v) = %v, want 0", horizon, b)
		}
	}
}

func TestBalancePlusMinusPointZeroOne(t *testing.T) {
	// Fig. 5(b): at VPB the balance is zero; VP −0.01 yields ≈ +10 ether,
	// VP +0.01 yields ≈ −10 ether with 1000-ether insurance.
	m := PaperProviderModel(0.149, 1000)
	horizon := 10 * time.Minute
	vpb := m.VPB(horizon)
	profit := m.Balance(vpb-0.01, horizon)
	loss := m.Balance(vpb+0.01, horizon)
	if math.Abs(profit-10) > 1e-6 {
		t.Errorf("VPB−0.01 profit = %v, want 10", profit)
	}
	if math.Abs(loss+10) > 1e-6 {
		t.Errorf("VPB+0.01 loss = %v, want −10", loss)
	}
}

func TestVPBClamps(t *testing.T) {
	// A provider with no mining power can never offset punishment: VPB 0.
	idle := PaperProviderModel(0, 1000)
	idle.FeesPerBlockEther = 0
	if got := idle.VPB(10 * time.Minute); got != 0 {
		t.Errorf("powerless VPB = %v, want 0", got)
	}
	// Tiny insurance relative to income: VPB clamps at 1.
	rich := PaperProviderModel(0.5, 1)
	if got := rich.VPB(time.Hour); got != 1 {
		t.Errorf("rich VPB = %v, want 1", got)
	}
	// Degenerate model.
	none := ProviderModel{}
	if got := none.VPB(time.Minute); got != 1 {
		t.Errorf("degenerate VPB = %v, want 1", got)
	}
}

func TestMajorityAttackSuccess(t *testing.T) {
	// Monotone in attacker share.
	prev := -1.0
	for _, q := range []float64{0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.49} {
		p := MajorityAttackSuccess(q, 6)
		if p <= prev {
			t.Errorf("P(%v) = %v not increasing", q, p)
		}
		if p < 0 || p > 1 {
			t.Errorf("P(%v) = %v out of range", q, p)
		}
		prev = p
	}
	// Certain at and above 50%.
	if MajorityAttackSuccess(0.5, 6) != 1 || MajorityAttackSuccess(0.9, 6) != 1 {
		t.Error("majority attacker should always succeed")
	}
	// No hashing power, no attack.
	if MajorityAttackSuccess(0, 6) != 0 {
		t.Error("powerless attacker should never succeed")
	}
	// Zero confirmations offer no protection.
	if MajorityAttackSuccess(0.1, 0) != 1 {
		t.Error("unconfirmed block should be rewritable")
	}
	// Deeper confirmation lowers the risk.
	if MajorityAttackSuccess(0.3, 12) >= MajorityAttackSuccess(0.3, 6) {
		t.Error("more confirmations should reduce attack success")
	}
	// The paper's deployment argument: 30% attacker vs 6 confirmations is
	// below 10%.
	if p := MajorityAttackSuccess(0.30, 6); p > 0.10 {
		t.Errorf("P(30%%, 6 conf) = %v, expected < 0.10", p)
	}
}

// DetectorModel parameterizes Eq. 13:
//
//	bd_i = N·ξ_i·t·[ρ_i·(μ−ψ) − c] / θ
type DetectorModel struct {
	// VulnsPerSRA is N, the average vulnerabilities detected per release.
	VulnsPerSRA float64
	// CapabilityShare is ξ_i = DC_i / DC_T.
	CapabilityShare float64
	// Rho is ρ_i, the proportion of the detector's findings that chain.
	Rho float64
	// BountyEther is μ.
	BountyEther float64
	// FeeEther is ψ, the average per-report transaction fee.
	FeeEther float64
	// SubmitCostEther is c.
	SubmitCostEther float64
	// SRAPeriod is θ, the average time between releases.
	SRAPeriod time.Duration
}

// Balance evaluates Eq. 13 over horizon t.
func (m DetectorModel) Balance(t time.Duration) float64 {
	if m.SRAPeriod <= 0 {
		return 0
	}
	perSRA := m.VulnsPerSRA * m.CapabilityShare * (m.Rho*(m.BountyEther-m.FeeEther) - m.SubmitCostEther)
	return perSRA * float64(t) / float64(m.SRAPeriod)
}

// Balance is Eq. 14 over horizon t: incentives minus punishments.
func (m ProviderModel) Balance(vp float64, t time.Duration) float64 {
	return m.Incentives(t) - m.Punishment(vp)
}

// Punishment returns the expected forfeiture for releasing with
// vulnerability proportion vp: per release, vp of the insurance is
// expected to be claimed by detectors, plus the deployment cost
// (continuous form of Eq. 9; Fig. 4(b)'s punishment-vs-VP lines).
func (m ProviderModel) Punishment(vp float64) float64 {
	if vp < 0 {
		vp = 0
	}
	return m.ReleasesPerHorizon * (vp*m.InsuranceEther + m.DeployCostEther)
}
