package bench

import (
	"fmt"
	"math"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/sim"
)

// paperProviderSpecs returns the top-5 hashing-power distribution the
// paper configures (Fig. 3/4 setups).
func paperProviderSpecs() []sim.ProviderSpec {
	shares := pow.TopFiveEthereumShares()
	out := make([]sim.ProviderSpec, len(shares))
	for i, s := range shares {
		out[i] = sim.ProviderSpec{Name: s.Name, HashShare: s.HashShare}
	}
	return out
}

// Fig3a regenerates Fig. 3(a): the average reward for different
// computation proportions when one block is created. The paper's point:
// the per-block reward is ~5 ether regardless of hashing power — power
// determines how *often* a provider wins, not how much a win pays.
func Fig3a(scale Scale) (*Report, error) {
	horizon := 2 * time.Hour
	if scale == Full {
		horizon = 9 * time.Hour // ≈ 2000 blocks, as Fig. 3(b) measures
	}
	res, err := sim.Run(sim.Config{
		Seed:      301,
		Providers: paperProviderSpecs(),
		Horizon:   horizon,
	})
	if err != nil {
		return nil, err
	}

	r := &Report{
		ID:      "fig3a",
		Title:   "Average reward per created block by hashing power",
		Headers: []string{"Provider", "HP %", "Blocks", "AvgReward (ETH)"},
		ShapeOK: true,
	}
	specs := paperProviderSpecs()
	avgRewards := make([]float64, len(specs))
	blockCounts := make([]uint64, len(specs))
	for i, spec := range specs {
		bal := res.ProviderBalance(i)
		avg := 0.0
		if bal.Blocks > 0 {
			avg = (bal.Mining + bal.Fees).Ether() / float64(bal.Blocks)
		}
		avgRewards[i] = avg
		blockCounts[i] = bal.Blocks
		r.Rows = append(r.Rows, []string{
			spec.Name,
			fmt.Sprintf("%.2f", spec.HashShare*100),
			fmt.Sprintf("%d", bal.Blocks),
			fmt.Sprintf("%.3f", avg),
		})
	}

	// Shape 1: every provider's per-block reward ≈ 5 ether.
	ok := true
	for _, avg := range avgRewards {
		if math.Abs(avg-5) > 0.5 {
			ok = false
		}
	}
	r.check(ok, "per-block reward ≈ 5 ether for every hashing power (paper: 5-ether block reward)")

	// Shape 2: block counts ordered by hashing power.
	ordered := true
	for i := 1; i < len(blockCounts); i++ {
		if blockCounts[i] > blockCounts[i-1] {
			ordered = false
		}
	}
	r.check(ordered, "block creation frequency follows hashing power (26.3%% > 22.5%% > 14.9%% > 11.8%% > 10.1%%)")
	return r, nil
}

// Fig3b regenerates Fig. 3(b): the block-time distribution. The paper
// measures 2000 blocks on its geth testnet and reports a 15.35 s average;
// PoW interarrival is exponential, so the histogram must be right-skewed
// with standard deviation ≈ mean.
func Fig3b(scale Scale) (*Report, error) {
	targetBlocks := 1000
	if scale == Full {
		targetBlocks = 2000
	}
	horizon := time.Duration(float64(targetBlocks) * 15.35 * float64(time.Second))
	res, err := sim.Run(sim.Config{
		Seed:      302,
		Providers: paperProviderSpecs(),
		Horizon:   horizon,
	})
	if err != nil {
		return nil, err
	}

	var (
		sum, sumSq float64
		buckets    [7]int // 0-5, 5-10, 10-15, 15-20, 20-30, 30-60, 60+
	)
	for _, b := range res.Blocks {
		s := b.Interval.Seconds()
		sum += s
		sumSq += s * s
		switch {
		case s < 5:
			buckets[0]++
		case s < 10:
			buckets[1]++
		case s < 15:
			buckets[2]++
		case s < 20:
			buckets[3]++
		case s < 30:
			buckets[4]++
		case s < 60:
			buckets[5]++
		default:
			buckets[6]++
		}
	}
	n := float64(len(res.Blocks))
	mean := sum / n
	stddev := math.Sqrt(sumSq/n - mean*mean)

	r := &Report{
		ID:      "fig3b",
		Title:   fmt.Sprintf("Block time distribution over %d blocks", len(res.Blocks)),
		Headers: []string{"Interval (s)", "Blocks", "Share %"},
		ShapeOK: true,
	}
	labels := []string{"0-5", "5-10", "10-15", "15-20", "20-30", "30-60", "60+"}
	for i, label := range labels {
		r.Rows = append(r.Rows, []string{
			label,
			fmt.Sprintf("%d", buckets[i]),
			fmt.Sprintf("%.1f", 100*float64(buckets[i])/n),
		})
	}
	r.note("measured mean %.2f s, stddev %.2f s (paper: mean 15.35 s over 2000 blocks)", mean, stddev)
	r.check(math.Abs(mean-15.35) < 1.5, "mean block time ≈ 15.35 s (measured %.2f)", mean)
	r.check(buckets[0] > buckets[3], "distribution right-skewed: short intervals dominate (exponential PoW)")
	r.check(math.Abs(stddev-mean)/mean < 0.15, "stddev ≈ mean (memoryless sealing)")
	return r, nil
}
