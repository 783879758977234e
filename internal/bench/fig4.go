package bench

import (
	"fmt"
	"math"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/sim"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// Fig4a regenerates Fig. 4(a): cumulative provider incentives (mining
// rewards + transaction fees) over time, per hashing-power proportion.
// Releases and detector traffic supply the fee income.
func Fig4a(scale Scale) (*Report, error) {
	horizon := 30 * time.Minute
	trials := 3
	if scale == Full {
		trials = 10
	}

	specs := paperProviderSpecs()
	checkpoints := []time.Duration{10 * time.Minute, 20 * time.Minute, 30 * time.Minute}
	// cumulative[trial][provider][checkpoint]
	totals := make([][]float64, len(specs))
	for i := range totals {
		totals[i] = make([]float64, len(checkpoints))
	}

	for trial := 0; trial < trials; trial++ {
		res, err := sim.Run(sim.Config{
			Seed:      401 + int64(trial),
			Providers: specs,
			Detectors: []sim.DetectorSpec{
				{Name: "d1", Threads: 2}, {Name: "d2", Threads: 4}, {Name: "d3", Threads: 8},
			},
			Releases: []sim.ReleaseSpec{
				{Provider: 0, At: time.Minute, Insurance: types.EtherAmount(1000), Bounty: types.EtherAmount(5), NumVulns: 8},
				{Provider: 1, At: 5 * time.Minute, Insurance: types.EtherAmount(1000), Bounty: types.EtherAmount(5), NumVulns: 8},
			},
			Horizon: horizon,
		})
		if err != nil {
			return nil, err
		}
		reward := chain.BlockReward.Ether()
		for _, b := range res.Blocks {
			for ci, cp := range checkpoints {
				if b.Time <= cp {
					totals[b.Miner][ci] += reward + b.Fees.Ether()
				}
			}
		}
	}

	r := &Report{
		ID:      "fig4a",
		Title:   "Provider incentives (mining + fees) over time",
		Headers: []string{"Provider", "HP %", "10 min (ETH)", "20 min (ETH)", "30 min (ETH)"},
		ShapeOK: true,
	}
	for i, spec := range specs {
		row := []string{spec.Name, fmt.Sprintf("%.2f", spec.HashShare*100)}
		for ci := range checkpoints {
			row = append(row, fmt.Sprintf("%.1f", totals[i][ci]/float64(trials)))
		}
		r.Rows = append(r.Rows, row)
	}

	// Shape 1: incentives increase with time for every provider.
	increasing := true
	for i := range specs {
		for ci := 1; ci < len(checkpoints); ci++ {
			if totals[i][ci] < totals[i][ci-1] {
				increasing = false
			}
		}
	}
	r.check(increasing, "incentives grow with participation time")

	// Shape 2: at 30 minutes the strongest provider out-earns the weakest
	// (the paper notes ordering holds but is not strictly proportional —
	// mining is probabilistic).
	r.check(totals[0][2] > totals[4][2],
		"26.3%% HP out-earns 10.1%% HP at 30 min (%.1f vs %.1f ETH)",
		totals[0][2]/float64(trials), totals[4][2]/float64(trials))
	ratio := totals[0][2] / math.Max(totals[4][2], 1e-9)
	r.note("earnings ratio 26.3%%/10.1%% = %.2f (power ratio 2.60; paper: \"not strictly obeying\" proportions)", ratio)
	return r, nil
}

// Fig4b regenerates Fig. 4(b): provider punishments as a function of the
// vulnerability proportion (VP), for insurances of 500, 1000 and 1500
// ether. VP maps to the expected forfeiture VP·I, i.e. an image with
// N = VP·I/μ vulnerabilities at bounty μ.
func Fig4b(scale Scale) (*Report, error) {
	bounty := types.EtherAmount(5)
	insurances := []uint64{500, 1000, 1500}
	vps := []float64{0, 0.02, 0.04, 0.06, 0.08, 0.10}
	// The horizon must leave room for every find→commit→confirm→reveal
	// pipeline to drain, or late claims deflate the punishment tail.
	horizon := 20 * time.Minute
	if scale == Full {
		horizon = 30 * time.Minute
	}

	// punished[insurance][vp] in ether.
	punished := make([][]float64, len(insurances))
	for ii, ins := range insurances {
		punished[ii] = make([]float64, len(vps))
		for vi, vp := range vps {
			numVulns := int(math.Round(vp * float64(ins) / 5))
			res, err := sim.Run(sim.Config{
				Seed:      421 + int64(ii*10+vi),
				Providers: paperProviderSpecs(),
				Detectors: []sim.DetectorSpec{
					{Name: "d1", Threads: 4}, {Name: "d2", Threads: 8},
				},
				Releases: []sim.ReleaseSpec{{
					Provider:  2, // the 14.9% provider, as §VII-B uses
					At:        30 * time.Second,
					Insurance: types.EtherAmount(ins),
					Bounty:    bounty,
					NumVulns:  numVulns,
				}},
				Horizon:      horizon,
				MeanFindTime: 30 * time.Second,
			})
			if err != nil {
				return nil, err
			}
			bal := res.ProviderBalance(2)
			punished[ii][vi] = (bal.Punishment + bal.Gas).Ether()
		}
	}

	r := &Report{
		ID:      "fig4b",
		Title:   "Provider punishments vs vulnerability proportion",
		Headers: []string{"VP", "I=500 (ETH)", "I=1000 (ETH)", "I=1500 (ETH)"},
		ShapeOK: true,
	}
	for vi, vp := range vps {
		row := []string{fmt.Sprintf("%.2f", vp)}
		for ii := range insurances {
			row = append(row, fmt.Sprintf("%.2f", punished[ii][vi]))
		}
		r.Rows = append(r.Rows, row)
	}

	// Shape 1: punishment non-decreasing in VP for each insurance.
	monotone := true
	for ii := range insurances {
		for vi := 1; vi < len(vps); vi++ {
			if punished[ii][vi]+1e-9 < punished[ii][vi-1] {
				monotone = false
			}
		}
	}
	r.check(monotone, "punishment grows with VP")

	// Shape 2: larger insurance ⇒ steeper punishment line.
	steeper := punished[2][len(vps)-1] > punished[0][len(vps)-1]
	r.check(steeper, "higher insurance steepens punishment (I=1500 tops I=500 at VP=0.10: %.1f vs %.1f ETH)",
		punished[2][len(vps)-1], punished[0][len(vps)-1])

	// Shape 3: at VP=0 only the deployment gas (~0.095 ether) remains.
	deployOnly := true
	for ii := range insurances {
		if math.Abs(punished[ii][0]-0.095) > 0.02 {
			deployOnly = false
		}
	}
	r.check(deployOnly, "at VP=0 the punishment reduces to the ≈0.095-ether deployment cost")
	return r, nil
}
