package pow

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/telemetry"
)

// MinerPower describes one mining provider's share of the network.
type MinerPower struct {
	// Name labels the miner in experiment output.
	Name string
	// HashShare is the miner's fraction of total hashing power, as the
	// paper configures via miner.start() thread counts. Shares need not
	// sum to 1; they are normalized.
	HashShare float64
}

// SealEvent is one simulated block-sealing outcome.
type SealEvent struct {
	// Winner is the index into the miner set of the provider who found
	// the nonce.
	Winner int
	// Interval is the time the network needed to find this block.
	Interval time.Duration
}

// SimSealer samples proof-of-work outcomes instead of grinding hashes.
// PoW block discovery is a Poisson race: the network-wide interarrival
// time is exponential with the configured mean, and the winner of each
// round is distributed proportionally to hashing power. Both facts follow
// from the memorylessness of independent Poisson processes, so sampling
// reproduces the statistics the paper measures (Fig. 3) exactly.
//
// SimSealer is deterministic given its seed, which makes every experiment
// reproducible bit-for-bit. It is not safe for concurrent use.
type SimSealer struct {
	rng        *rand.Rand
	miners     []MinerPower
	cumulative []float64 // normalized cumulative shares
	meanBlock  time.Duration
	// wins are the per-miner lottery-win counters, resolved once at
	// construction so Next stays a pure sampling step plus one atomic add.
	wins []*telemetry.Counter
}

// SimConfig configures a SimSealer.
type SimConfig struct {
	// Miners is the provider set with hashing-power shares.
	Miners []MinerPower
	// MeanBlockTime is the expected network block interval. The paper
	// measures 15.35 s on its geth testnet at difficulty 0xf00000.
	MeanBlockTime time.Duration
	// Seed makes runs reproducible.
	Seed int64
}

// Simulation errors.
var (
	ErrNoMiners  = errors.New("pow: no miners configured")
	ErrBadShares = errors.New("pow: hash shares must be positive")
)

// NewSimSealer validates the configuration and builds a sealer.
func NewSimSealer(cfg SimConfig) (*SimSealer, error) {
	if len(cfg.Miners) == 0 {
		return nil, ErrNoMiners
	}
	if cfg.MeanBlockTime <= 0 {
		return nil, fmt.Errorf("pow: mean block time %v must be positive", cfg.MeanBlockTime)
	}
	total := 0.0
	for _, m := range cfg.Miners {
		if m.HashShare <= 0 || math.IsNaN(m.HashShare) || math.IsInf(m.HashShare, 0) {
			return nil, fmt.Errorf("%w: %q has share %v", ErrBadShares, m.Name, m.HashShare)
		}
		total += m.HashShare
	}
	cum := make([]float64, len(cfg.Miners))
	acc := 0.0
	for i, m := range cfg.Miners {
		acc += m.HashShare / total
		cum[i] = acc
	}
	cum[len(cum)-1] = 1.0 // guard against rounding
	return &SimSealer{
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		miners:     append([]MinerPower(nil), cfg.Miners...),
		cumulative: cum,
		meanBlock:  cfg.MeanBlockTime,
		wins:       simWinCounters(cfg.Miners),
	}, nil
}

// Next samples the next block-sealing event.
func (s *SimSealer) Next() SealEvent {
	// Interarrival ~ Exp(mean).
	interval := time.Duration(s.rng.ExpFloat64() * float64(s.meanBlock))
	if interval <= 0 {
		interval = time.Nanosecond
	}
	// Winner ∝ hash share.
	u := s.rng.Float64()
	winner := len(s.cumulative) - 1
	for i, c := range s.cumulative {
		if u < c {
			winner = i
			break
		}
	}
	s.wins[winner].Inc()
	return SealEvent{Winner: winner, Interval: interval}
}

// NonceFor deterministically fabricates a plausible nonce for a simulated
// block; simulated chains skip the PoW predicate but keep the field
// populated so encodings stay uniform.
func (s *SimSealer) NonceFor() uint64 { return s.rng.Uint64() }

// TopFiveEthereumShares returns the hashing-power distribution the paper
// uses: the top-5 Ethereum mining pools at the time of writing
// (etherscan.io/stat/miner), normalized. Fig. 4(a) labels these
// 26.30%, 22.50%, 14.90%, 11.80% and 10.10%.
func TopFiveEthereumShares() []MinerPower {
	return []MinerPower{
		{Name: "provider-1", HashShare: 0.2630},
		{Name: "provider-2", HashShare: 0.2250},
		{Name: "provider-3", HashShare: 0.1490},
		{Name: "provider-4", HashShare: 0.1180},
		{Name: "provider-5", HashShare: 0.1010},
	}
}

// PaperMeanBlockTime is the average block time the paper measures over
// 2000 blocks on its private geth testnet (Fig. 3(b)).
const PaperMeanBlockTime = 15350 * time.Millisecond

// PaperBlockDifficulty is the fixed difficulty the paper configures
// (0xf00000).
const PaperBlockDifficulty uint64 = 0xf00000
