// Package sim is SmartCrowd's experiment harness: a discrete-event
// simulation that drives a full platform — one real provider node per
// mining provider and one real detector node per detector on a
// zero-latency gossip bus, a weighted PoW lottery picking who seals, SRA
// releases with escrowed insurance — over simulated hours in seconds of
// wall-clock time. The schedule keeps only the clock: each detector finds
// a chained SRA in its own view, scans it once with its
// detection.CapabilityEngine (the DC_i model) and commits each finding
// when its engine found it, so detectors race per vulnerability through
// the two-phase report protocol. Every run is deterministic given its
// seed.
//
// The harness reproduces the paper's §VII experiments: block production and
// rewards (Fig. 3), provider incentives and punishments (Fig. 4, 5), and
// detector incentives and costs (Fig. 6).
package sim

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/chain"
	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/detection"
	"github.com/smartcrowd/smartcrowd/internal/incentive"
	"github.com/smartcrowd/smartcrowd/internal/node"
	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// ProviderSpec configures one mining IoT provider.
type ProviderSpec struct {
	// Name labels the provider.
	Name string
	// HashShare is its fraction of network hashing power (ζ_i).
	HashShare float64
}

// DetectorSpec configures one detector.
type DetectorSpec struct {
	// Name labels the detector.
	Name string
	// Threads scales detection speed, as the paper allocates 1-8 threads
	// (the engine's Speed; default 1).
	Threads int
	// Capability is DC_i, the per-vulnerability discovery probability
	// (default 1).
	Capability float64
}

// Genesis balances: every provider's and every detector's (which pays
// report gas).
const (
	providerFunds = 100_000 * types.Ether
	detectorFunds = 1000 * types.Ether
)

// ReleaseSpec schedules one SRA.
type ReleaseSpec struct {
	// Provider indexes Config.Providers.
	Provider int
	// At is the release time from simulation start.
	At time.Duration
	// Insurance (I) and Bounty (μ) parameterize the contract.
	Insurance, Bounty types.Amount
	// NumVulns sizes the image's vulnerability universe. The paper's VP
	// maps to NumVulns ≈ VP·Insurance/Bounty (expected forfeiture VP·I).
	NumVulns int
}

// Config parameterizes a run.
type Config struct {
	Seed      int64
	Providers []ProviderSpec
	Detectors []DetectorSpec
	Releases  []ReleaseSpec
	// Horizon is the simulated duration.
	Horizon time.Duration
	// MeanBlockTime is the PoW mean interval (paper: 15.35 s).
	MeanBlockTime time.Duration
	// MeanFindTime is the expected per-vulnerability search time for a
	// single-thread detector (default 2 min).
	MeanFindTime time.Duration
}

// BlockStat summarizes one sealed block.
type BlockStat struct {
	Number uint64
	Miner  int // index into Config.Providers
	// Time is the absolute simulation time at sealing.
	Time time.Duration
	// Interval is the time since the previous block.
	Interval        time.Duration
	incentive.Block // its fees and reports, read from the chain's books
}

// SRAOutcome summarizes one release at the end of the run: its spec, and
// from the chain's books the insurance forfeited to detectors and the
// number of distinct vulnerabilities paid for.
type SRAOutcome struct {
	ID types.Hash
	ReleaseSpec
	PaidOut   types.Amount
	Confirmed uint64
}

// Result carries a run's artifacts: the chain it produced and the timing
// of its seals. Every incentive figure is read from the chain's books
// (incentive.Read), once, when the run ends.
type Result struct {
	Blocks    []BlockStat
	SRAs      []SRAOutcome
	Providers []types.Address
	Detectors []types.Address
	// Chain is the first provider node's chain; every node's agrees.
	Chain    *chain.Chain
	Contract *contract.Contract
	// nodes are the run's provider nodes, indexed like Config.Providers,
	// and detectors its detector nodes, indexed like Config.Detectors;
	// net is the bus they gossip over.
	nodes     []*node.ProviderNode
	detectors []*node.DetectorNode
	net       *p2p.Network
	books     *incentive.Books
	// telemetry is the run's end-of-run metric snapshot (see Telemetry).
	telemetry telemetry.Snapshot
}

// ProviderBalance returns the books' balance of provider i.
func (r *Result) ProviderBalance(i int) incentive.Balance {
	return r.books.Of(r.Providers[i])
}

// DetectorBalance returns the books' balance of detector i.
func (r *Result) DetectorBalance(i int) incentive.Balance {
	return r.books.Of(r.Detectors[i])
}

// event is a scheduled action.
type event struct {
	at time.Duration
	fn func()
}

// runner is the mutable state of one simulation.
type runner struct {
	cfg       Config
	rng       *rand.Rand
	net       *p2p.Network
	nodes     []*node.ProviderNode // one per Config.Providers entry
	detectors []*node.DetectorNode // one per Config.Detectors entry
	contract  *contract.Contract
	verifier  *detection.GroundTruthVerifier
	sealer    *pow.SimSealer
	metrics   *simMetrics

	// sraNonces counts each provider's SRA transactions.
	sraNonces []uint64

	// events are the scheduled actions, by time and then by scheduling
	// order.
	events []event
	now    time.Duration

	// sraOutcomes are the releases, in release order.
	sraOutcomes []SRAOutcome
	blockStats  []BlockStat
}

// Validation errors.
var (
	ErrNoProviders = errors.New("sim: no providers configured")
	ErrNoHorizon   = errors.New("sim: horizon must be positive")
)

// Run executes a configured simulation.
func Run(cfg Config) (*Result, error) {
	if len(cfg.Providers) == 0 {
		return nil, ErrNoProviders
	}
	if cfg.Horizon <= 0 {
		return nil, ErrNoHorizon
	}
	if cfg.MeanBlockTime <= 0 {
		cfg.MeanBlockTime = pow.PaperMeanBlockTime
	}
	if cfg.MeanFindTime <= 0 {
		cfg.MeanFindTime = 2 * time.Minute
	}
	for i, rel := range cfg.Releases {
		if rel.Provider < 0 || rel.Provider >= len(cfg.Providers) {
			return nil, fmt.Errorf("sim: release %d references provider %d of %d", i, rel.Provider, len(cfg.Providers))
		}
	}

	r := &runner{
		cfg:       cfg,
		rng:       rand.New(rand.NewSource(cfg.Seed)),
		net:       p2p.New(p2p.Config{Seed: cfg.Seed}),
		verifier:  detection.NewGroundTruthVerifier(false),
		metrics:   newSimMetrics(),
		sraNonces: make([]uint64, len(cfg.Providers)),
	}
	r.contract = contract.New(contract.DefaultParams(), r.verifier)

	// Genesis allocation.
	alloc := make(map[types.Address]types.Amount)
	miners := make([]pow.MinerPower, len(cfg.Providers))
	providerWallets := make([]*wallet.Wallet, len(cfg.Providers))
	for i, spec := range cfg.Providers {
		w := wallet.NewDeterministic(fmt.Sprintf("sim%d-provider-%s", cfg.Seed, spec.Name))
		providerWallets[i] = w
		alloc[w.Address()] = providerFunds
		miners[i] = pow.MinerPower{Name: spec.Name, HashShare: spec.HashShare}
	}
	detectorWallets := make([]*wallet.Wallet, len(cfg.Detectors))
	for i, spec := range cfg.Detectors {
		w := wallet.NewDeterministic(fmt.Sprintf("sim%d-detector-%s", cfg.Seed, spec.Name))
		detectorWallets[i] = w
		alloc[w.Address()] = detectorFunds
	}

	chainCfg := chain.DefaultConfig(r.contract)
	chainCfg.Rule = pow.Sampled
	chainCfg.Alloc = alloc
	for i, w := range providerWallets {
		n, err := node.NewProvider(p2p.NodeID(fmt.Sprintf("provider/%d", i)), w, chainCfg, r.net)
		if err != nil {
			return nil, err
		}
		r.nodes = append(r.nodes, n)
	}
	for i, spec := range cfg.Detectors {
		engine := &detection.CapabilityEngine{
			Name:         spec.Name,
			Capability:   spec.Capability,
			Speed:        float64(max(spec.Threads, 1)),
			MeanFindTime: cfg.MeanFindTime,
			Seed:         cfg.Seed + int64(i+1)<<32,
		}
		if engine.Capability <= 0 {
			engine.Capability = 1
		}
		r.detectors = append(r.detectors, node.NewDetector(p2p.NodeID(fmt.Sprintf("detector/%d", i)),
			detectorWallets[i], engine, r.nodes[r.entry(i)].Chain(), r.contract, r.verifier, r.net))
	}

	sealer, err := pow.NewSimSealer(pow.SimConfig{
		Miners:        miners,
		MeanBlockTime: cfg.MeanBlockTime,
		Seed:          cfg.Seed + 1,
	})
	if err != nil {
		return nil, err
	}
	r.sealer = sealer

	// Schedule releases.
	for i, rel := range cfg.Releases {
		r.schedule(rel.At, func() { r.release(i) })
	}

	if err := r.loop(); err != nil {
		return nil, err
	}
	return r.result()
}

func (r *runner) schedule(at time.Duration, fn func()) {
	at = max(at, r.now)
	i := sort.Search(len(r.events), func(i int) bool { return r.events[i].at > at })
	r.events = slices.Insert(r.events, i, event{at: at, fn: fn})
}

// loop alternates between scheduled submissions and block production until
// the horizon elapses. Every submission and every seal settles the bus, so
// each seal starts from nodes that agree on the head and on their pools:
// with zero latency the lottery's winner never forks.
func (r *runner) loop() error {
	for {
		ev := r.sealer.Next()
		next := r.now + ev.Interval
		if next > r.cfg.Horizon {
			return nil
		}
		// Fire all submissions due before the block lands.
		for len(r.events) > 0 && r.events[0].at <= next {
			e := r.events[0]
			r.events = r.events[1:]
			r.now = e.at
			e.fn()
		}
		r.now = next
		if err := r.mine(ev); err != nil {
			return err
		}
	}
}

// settle delivers gossip round after round until the bus is quiet.
// Latency is zero, so each round delivers everything sent before it. It
// runs after every submission, so every node pools a transaction before
// anything else happens: arrival order breaks ties at block assembly, so
// it has to be the same on whichever node wins the next seal.
func (r *runner) settle() {
	for i := 0; i < 32; i++ {
		r.net.AdvanceTo(uint64(r.now / time.Millisecond))
		for _, n := range r.nodes {
			n.HandleMessages()
		}
		if r.net.PendingDeliveries() == 0 {
			return
		}
	}
}

// release fires one SRA: generate the image, register its ground truth
// (which publishes the image) and submit the announcement. Detection
// starts when the detectors find the SRA chained (paper §V-A: "an SRA is
// available until it has been verified and recorded in the blockchain").
func (r *runner) release(relIdx int) {
	rel := r.cfg.Releases[relIdx]
	w := r.nodes[rel.Provider].Wallet()
	img := detection.GenerateImage(
		fmt.Sprintf("fw-%d", relIdx), "1.0",
		detection.UniverseSpec{High: rel.NumVulns, Seed: r.cfg.Seed + int64(relIdx)*31},
	)
	sra := &types.SRA{
		Provider:     w.Address(),
		Name:         img.Name,
		Version:      img.Version,
		SystemHash:   img.Hash(),
		DownloadLink: "sc://releases/" + img.Name,
		Insurance:    rel.Insurance,
		Bounty:       rel.Bounty,
	}
	if err := types.SignSRA(sra, w); err != nil {
		panic("sim: sign SRA: " + err.Error())
	}
	r.verifier.Register(sra.ID, img)
	r.sraOutcomes = append(r.sraOutcomes, SRAOutcome{ID: sra.ID, ReleaseSpec: rel})

	tx := types.NewSRATx(sra, r.sraNonces[rel.Provider], contract.GasSRA, contract.GasPrice)
	r.sraNonces[rel.Provider]++
	if err := types.SignTx(tx, w); err != nil {
		panic("sim: sign SRA tx: " + err.Error())
	}
	if err := r.nodes[rel.Provider].SubmitTx(tx); err != nil {
		panic("sim: submit SRA tx: " + err.Error())
	}
	r.settle()
}

// poll polls detector d at the current time and wakes it again at each
// time a finding it found falls due: the detector commits each finding
// when its engine found it, and a wake's commitment is settled at once.
func (r *runner) poll(d *node.DetectorNode) {
	for _, at := range d.Poll(r.now) {
		r.schedule(at, func() {
			r.poll(d)
			r.settle()
		})
	}
}

// Gossip propagation model parameters: a freshly sealed block reaches
// each other provider after 1–2 relay hops, each an exponentially
// distributed delay. The 40ms mean hop matches the cross-region TCP
// latencies the wire transport's smartcrowd_wire_propagation_ms
// histogram observes in deployment, so the sim's seal→import summary is
// comparable with live numbers.
const simHopMeanMs = 40.0

// samplePropagation records one modeled seal→import latency sample per
// non-mining provider — the sim-side counterpart of the wire transport's
// end-to-end propagation measurement.
func (r *runner) samplePropagation(winner int) {
	for i := range r.nodes {
		if i == winner {
			continue
		}
		hops := 1 + r.rng.Intn(2)
		delay := 0.0
		for h := 0; h < hops; h++ {
			delay += r.rng.ExpFloat64() * simHopMeanMs
		}
		r.metrics.propagation.Observe(uint64(delay))
	}
}

// entry is the provider node whose chain detector d reads.
func (r *runner) entry(d int) int { return d % len(r.nodes) }

// mine lets the lottery winner seal a block from its pool and settles the
// bus, then records the seal's timing and polls every detector.
func (r *runner) mine(ev pow.SealEvent) error {
	winner := r.nodes[ev.Winner]
	// SealAndPublish lifts a timestamp that sub-millisecond intervals
	// collapsed onto the parent's millisecond: consensus requires strictly
	// increasing time.
	blk, err := winner.SealAndPublish(r.sealer, uint64(r.now/time.Millisecond),
		pow.PaperBlockDifficulty, 0, nil)
	if err != nil {
		return fmt.Errorf("sim: %s seals block: %w", winner.ID(), err)
	}
	r.settle()

	r.blockStats = append(r.blockStats, BlockStat{
		Number:   blk.Header.Number,
		Miner:    ev.Winner,
		Time:     r.now,
		Interval: ev.Interval,
	})
	r.metrics.blocks.Inc()
	r.metrics.blockInterval.Observe(uint64(ev.Interval / time.Millisecond))
	r.metrics.blockTxs.Observe(uint64(len(blk.Txs)))
	r.samplePropagation(ev.Winner)

	// Every detector polls the seal: it scans the SRAs newly chained in
	// its view and reveals the commitments that are deep enough. Every
	// detector sees the seal at once, so the order in which their reveals
	// reach the pools is the network's: drawn from the run's stream, never
	// by detector index. The first reveal of a finding is the one paid,
	// and an index order would hand every tie between commitments chained
	// in one block to the lowest index.
	for _, i := range r.rng.Perm(len(r.detectors)) {
		r.poll(r.detectors[i])
	}
	r.settle()
	return nil
}

// result reads the chain's books and derives the run's incentive figures
// from them. Read fails when the books do not add up to the head state's
// balances, and so does the run.
func (r *runner) result() (*Result, error) {
	ch := r.nodes[0].Chain()
	books, err := incentive.Read(ch.CurrentView())
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	res := &Result{
		Blocks:    r.blockStats,
		SRAs:      r.sraOutcomes,
		Chain:     ch,
		Contract:  r.contract,
		nodes:     r.nodes,
		detectors: r.detectors,
		net:       r.net,
		books:     books,
	}
	var fees, mined, paid types.Amount
	for i := range res.Blocks {
		res.Blocks[i].Block = books.Blocks[res.Blocks[i].Number]
		fees += res.Blocks[i].Fees
	}
	for i := range res.SRAs {
		if s, ok := books.SRAs[res.SRAs[i].ID]; ok {
			res.SRAs[i].PaidOut, res.SRAs[i].Confirmed = s.PaidOut, s.Confirmed
			paid += s.PaidOut
		}
	}
	for _, n := range r.nodes {
		res.Providers = append(res.Providers, n.Address())
		mined += books.Of(n.Address()).Mining
	}
	for _, d := range r.detectors {
		res.Detectors = append(res.Detectors, d.Address())
	}
	// Every fee a sender pays its miner earns, and every payout a
	// detector earns its release's provider forfeits.
	r.metrics.feesGwei.Add(uint64(fees))
	r.metrics.gasGwei.Add(uint64(fees))
	r.metrics.rewardGwei.Add(uint64(mined))
	r.metrics.bountyGwei.Add(uint64(paid))
	r.metrics.punishGwei.Add(uint64(paid))
	res.telemetry = r.metrics.reg.Snapshot()
	return res, nil
}
