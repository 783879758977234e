package sim

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/telemetry"
)

// simMetrics is a per-run metric set on a private registry, so concurrent
// or repeated Run calls never bleed counts into one another. The run's
// provider nodes are real nodes: their chain, txpool and gossip series
// count into the process-wide Default registry, summed over the nodes.
type simMetrics struct {
	reg           *telemetry.Registry
	blockInterval *telemetry.Histogram // milliseconds between blocks
	blockTxs      *telemetry.Histogram
	propagation   *telemetry.Histogram // seal→import latency per simulated peer
	blocks        *telemetry.Counter
	feesGwei      *telemetry.Counter
	rewardGwei    *telemetry.Counter // miner block rewards
	bountyGwei    *telemetry.Counter // detector payouts
	punishGwei    *telemetry.Counter // provider insurance forfeits
	gasGwei       *telemetry.Counter // sender gas spend
}

func newSimMetrics() *simMetrics {
	reg := telemetry.NewRegistry()
	m := &simMetrics{
		reg:           reg,
		blockInterval: reg.Histogram("smartcrowd_sim_block_interval_ms"),
		blockTxs:      reg.Histogram("smartcrowd_sim_block_txs"),
		propagation:   reg.Histogram("smartcrowd_sim_propagation_ms"),
		blocks:        reg.Counter("smartcrowd_sim_blocks_total"),
		feesGwei:      reg.Counter("smartcrowd_sim_fees_gwei_total"),
		rewardGwei:    reg.Counter("smartcrowd_sim_payout_gwei_total", telemetry.L("role", "miner_reward")),
		bountyGwei:    reg.Counter("smartcrowd_sim_payout_gwei_total", telemetry.L("role", "detector_bounty")),
		punishGwei:    reg.Counter("smartcrowd_sim_payout_gwei_total", telemetry.L("role", "provider_punishment")),
		gasGwei:       reg.Counter("smartcrowd_sim_payout_gwei_total", telemetry.L("role", "sender_gas")),
	}
	reg.SetHelp("smartcrowd_sim_block_interval_ms", "interval between sealed blocks in simulated milliseconds")
	reg.SetHelp("smartcrowd_sim_propagation_ms",
		"modeled seal→import latency in milliseconds, one sample per non-mining provider per block — the sim's counterpart of the wire transport's smartcrowd_wire_propagation_ms{leg=e2e}")
	reg.SetHelp("smartcrowd_sim_payout_gwei_total", "gwei moved per incentive role over the run")
	return m
}

// TelemetrySummary renders the run's telemetry as a compact human-readable
// block, suitable for printing after a CLI simulation.
func (r *Result) TelemetrySummary() string {
	var sb strings.Builder
	sb.WriteString("telemetry summary:\n")
	sb.WriteString(fmt.Sprintf("  blocks sealed:     %.0f\n", r.telemetry.Values["smartcrowd_sim_blocks_total"]))
	// Quantiles are exponential-bucket upper bounds and can exceed the
	// exact (CAS-tracked) max; clamp for display so the line reads sanely.
	imax := r.telemetry.Values["smartcrowd_sim_block_interval_ms_max"]
	clamp := func(v float64) float64 {
		return math.Min(v, imax)
	}
	sb.WriteString(fmt.Sprintf("  block interval:    p50 %s  p90 %s  p99 %s  max %s\n",
		msStr(clamp(r.telemetry.Values["smartcrowd_sim_block_interval_ms_p50"])),
		msStr(clamp(r.telemetry.Values["smartcrowd_sim_block_interval_ms_p90"])),
		msStr(clamp(r.telemetry.Values["smartcrowd_sim_block_interval_ms_p99"])),
		msStr(imax)))
	sb.WriteString(fmt.Sprintf("  txs per block:     p50 %.0f  max %.0f\n",
		r.telemetry.Values["smartcrowd_sim_block_txs_p50"],
		r.telemetry.Values["smartcrowd_sim_block_txs_max"]))
	// Seal→import propagation across the simulated providers; absent when
	// the run has a single provider (nothing to propagate to).
	if r.telemetry.Values["smartcrowd_sim_propagation_ms_count"] > 0 {
		pmax := r.telemetry.Values["smartcrowd_sim_propagation_ms_max"]
		pclamp := func(v float64) float64 { return math.Min(v, pmax) }
		sb.WriteString(fmt.Sprintf("  seal→import:       p50 %s  p99 %s  max %s (%.0f samples)\n",
			msStr(pclamp(r.telemetry.Values["smartcrowd_sim_propagation_ms_p50"])),
			msStr(pclamp(r.telemetry.Values["smartcrowd_sim_propagation_ms_p99"])),
			msStr(pmax),
			r.telemetry.Values["smartcrowd_sim_propagation_ms_count"]))
	}
	sb.WriteString(fmt.Sprintf("  fees collected:    %.0f gwei\n", r.telemetry.Values["smartcrowd_sim_fees_gwei_total"]))
	roles := make([]string, 0, 4)
	for k := range r.telemetry.Values {
		if strings.HasPrefix(k, "smartcrowd_sim_payout_gwei_total{") {
			roles = append(roles, k)
		}
	}
	sort.Strings(roles)
	for _, k := range roles {
		role := strings.TrimSuffix(strings.TrimPrefix(k, `smartcrowd_sim_payout_gwei_total{role="`), `"}`)
		sb.WriteString(fmt.Sprintf("  %-18s %.0f gwei\n", role+":", r.telemetry.Values[k]))
	}
	return sb.String()
}

func msStr(ms float64) string {
	return time.Duration(ms * float64(time.Millisecond)).Round(time.Millisecond).String()
}
