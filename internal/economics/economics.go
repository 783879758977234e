// Package economics implements the paper's theoretical model (§VI-B):
// total detection capability DC_T (Eq. 11), the balance of detectors
// (Eq. 12-13) and providers (Eq. 14), and the vulnerability-proportion
// baseline (VPB) at which a provider's incentives exactly offset its
// punishments (§VII-A, Fig. 5).
//
// All quantities are in ether as float64 — this is the analysis layer, not
// consensus arithmetic.
package economics

import (
	"errors"
	"fmt"
	"time"
)

// TotalDetectionCapability computes Eq. 11: DC_T = Σ DC_i·ρ_i, the
// platform-wide probability that a vulnerability is discovered and
// chained. Inputs must be the same length; each product is a probability.
func TotalDetectionCapability(capabilities, rhos []float64) (float64, error) {
	if len(capabilities) != len(rhos) {
		return 0, fmt.Errorf("economics: %d capabilities, %d proportions", len(capabilities), len(rhos))
	}
	var total, rhoSum float64
	for i := range capabilities {
		dc, rho := capabilities[i], rhos[i]
		if dc < 0 || dc > 1 || rho < 0 || rho > 1 {
			return 0, fmt.Errorf("economics: DC_%d=%v ρ=%v out of [0,1]", i, dc, rho)
		}
		rhoSum += rho
		total += dc * rho
	}
	if rhoSum > 1+1e-9 {
		return 0, errors.New("economics: Σρ_i exceeds 1 (one confirmation per vulnerability)")
	}
	return total, nil
}

// ProviderModel parameterizes the provider side (Eq. 8, 9, 14 and the VPB
// analysis of §VII-A).
type ProviderModel struct {
	// HashShare is ζ_i, the provider's fraction of network hashing power.
	HashShare float64
	// BlockRewardEther is χ·ν per created block (the paper awards 5).
	BlockRewardEther float64
	// FeesPerBlockEther is ψ·ω, the average fee income per created block.
	FeesPerBlockEther float64
	// BlockTime is ϑ, the network's mean block interval (15.35 s).
	BlockTime time.Duration
	// InsuranceEther is I_i staked per release.
	InsuranceEther float64
	// DeployCostEther is cp_i, the gas cost of releasing (≈0.095).
	DeployCostEther float64
	// ReleasesPerHorizon is how many SRAs the provider issues during the
	// evaluated period (the paper's runs release once).
	ReleasesPerHorizon float64
}

// Incentives returns the expected mining income over horizon t:
// ζ·(t/ϑ)·(χν + ψω), the continuous form of Eq. 8.
func (m ProviderModel) Incentives(t time.Duration) float64 {
	if m.BlockTime <= 0 {
		return 0
	}
	blocks := m.HashShare * float64(t) / float64(m.BlockTime)
	return blocks * (m.BlockRewardEther + m.FeesPerBlockEther)
}

// VPB solves Balance(vp, t) = 0 for vp — the vulnerability-proportion
// baseline of §VII-A. Returns 0 when even a flawless release loses money,
// and 1 when incentives exceed the punishment of a fully vulnerable
// release.
func (m ProviderModel) VPB(t time.Duration) float64 {
	if m.InsuranceEther <= 0 || m.ReleasesPerHorizon <= 0 {
		return 1
	}
	// Balance is linear in vp: solve directly.
	vp := (m.Incentives(t) - m.ReleasesPerHorizon*m.DeployCostEther) /
		(m.ReleasesPerHorizon * m.InsuranceEther)
	if vp < 0 {
		return 0
	}
	if vp > 1 {
		return 1
	}
	return vp
}

// PaperProviderModel returns the model calibrated to the paper's setup for
// a given hashing-power share: 5-ether block rewards, 15.35 s blocks, one
// release per horizon, 1000-ether insurance, 0.095-ether deploy cost, and
// fee income calibrated so that the 14.90%-HP provider's VPB over 10
// minutes lands at the paper's 0.038 (Fig. 5(a)).
func PaperProviderModel(hashShare float64, insuranceEther float64) ProviderModel {
	return ProviderModel{
		HashShare:          hashShare,
		BlockRewardEther:   5,
		FeesPerBlockEther:  1.55, // calibration: VPB(14.9%, 10 min, 1000) ≈ 0.038
		BlockTime:          15350 * time.Millisecond,
		InsuranceEther:     insuranceEther,
		DeployCostEther:    0.095,
		ReleasesPerHorizon: 1,
	}
}
