package sim

import (
	"strings"
	"testing"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// TestRunTelemetryMatchesResult cross-checks the end-of-run telemetry
// snapshot against the structured Result: same block count, per-block
// reward accounting, and interval histogram coverage.
func TestRunTelemetryMatchesResult(t *testing.T) {
	res, err := Run(Config{
		Seed:      7,
		Providers: paperProviders(),
		Horizon:   time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	tel := res.Telemetry()
	blocks := float64(len(res.Blocks))
	if blocks == 0 {
		t.Fatal("simulation sealed no blocks")
	}
	if got := tel.Values["smartcrowd_sim_blocks_total"]; got != blocks {
		t.Errorf("blocks_total = %v, result has %v blocks", got, blocks)
	}
	if got := tel.Values["smartcrowd_sim_block_interval_ms_count"]; got != blocks {
		t.Errorf("block_interval count = %v, want one observation per block (%v)", got, blocks)
	}
	// Every block pays the fixed reward, so the miner_reward payout series
	// must equal blocks × BlockReward exactly.
	reward := tel.Values[`smartcrowd_sim_payout_gwei_total{role="miner_reward"}`]
	if want := blocks * float64(types.EtherAmount(5)); reward != want {
		t.Errorf("miner_reward payouts = %v gwei, want %v", reward, want)
	}
	// Histogram quantiles are bucket upper bounds, so p50 ≤ max always.
	p50 := tel.Values["smartcrowd_sim_block_interval_ms_p50"]
	max := tel.Values["smartcrowd_sim_block_interval_ms_max"]
	if p50 <= 0 || max < p50 {
		t.Errorf("interval quantiles implausible: p50=%v max=%v", p50, max)
	}
	// The propagation model samples every non-mining provider once per
	// block: blocks × (providers − 1) observations exactly.
	nProviders := float64(len(paperProviders()))
	if got, want := tel.Values["smartcrowd_sim_propagation_ms_count"], blocks*(nProviders-1); got != want {
		t.Errorf("propagation samples = %v, want blocks×(providers-1) = %v", got, want)
	}
	pp50 := tel.Values["smartcrowd_sim_propagation_ms_p50"]
	pp99 := tel.Values["smartcrowd_sim_propagation_ms_p99"]
	if pp50 <= 0 || pp99 < pp50 {
		t.Errorf("propagation quantiles implausible: p50=%v p99=%v", pp50, pp99)
	}
}

// TestTelemetrySummaryRendering checks the human-readable rendering pulls
// from the same snapshot the structured accessor exposes.
func TestTelemetrySummaryRendering(t *testing.T) {
	res, err := Run(Config{
		Seed:      7,
		Providers: paperProviders(),
		Horizon:   30 * time.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	sum := res.TelemetrySummary()
	for _, want := range []string{
		"telemetry summary:",
		"blocks sealed:",
		"block interval:",
		"seal→import:",
		"miner_reward:",
		"sender_gas:",
	} {
		if !strings.Contains(sum, want) {
			t.Errorf("summary missing %q:\n%s", want, sum)
		}
	}
	// Runs on a private registry: two runs must not accumulate into each
	// other's counters.
	res2, err := Run(Config{Seed: 7, Providers: paperProviders(), Horizon: 30 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	a := res.Telemetry().Values["smartcrowd_sim_blocks_total"]
	b := res2.Telemetry().Values["smartcrowd_sim_blocks_total"]
	if a != b {
		t.Errorf("identical runs report different block totals: %v vs %v (registry bleed?)", a, b)
	}
}

// Telemetry returns the run's end-of-run metric snapshot. All series live
// under the smartcrowd_sim_ prefix; histogram series expand to
// _count/_sum/_max/_p50/_p90/_p99.
func (r *Result) Telemetry() telemetry.Snapshot { return r.telemetry }
