// Package sim is SmartCrowd's experiment harness: a discrete-event
// simulation that drives a full platform — one real provider node per
// mining provider on a zero-latency gossip bus, a weighted PoW lottery
// picking who seals, lightweight detectors racing per-vulnerability
// through the two-phase report protocol, SRA releases with escrowed
// insurance — over simulated hours in seconds of wall-clock time. Every
// run is deterministic given its seed.
//
// The harness reproduces the paper's §VII experiments: block production and
// rewards (Fig. 3), provider incentives and punishments (Fig. 4, 5), and
// detector incentives and costs (Fig. 6).
package sim

import (
	"container/heap"
	"errors"
	"fmt"
	"math/rand"
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
	// Funds is its genesis balance.
	Funds types.Amount
}

// DetectorSpec configures one detector.
type DetectorSpec struct {
	// Name labels the detector.
	Name string
	// Threads scales detection speed, as the paper allocates 1-8 threads.
	Threads int
	// Capability is DC_i, the per-vulnerability discovery probability.
	Capability float64
	// Funds is its genesis balance (pays report gas).
	Funds types.Amount
}

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
	// GasPrice applies to every transaction (default 50 gwei).
	GasPrice types.Amount
	// RevealConfirmations gates Phase II (default 1).
	RevealConfirmations uint64
	// MaxTxPerBlock caps block size (0 = unlimited).
	MaxTxPerBlock int
}

// BlockStat summarizes one sealed block.
type BlockStat struct {
	Number uint64
	Miner  int // index into Config.Providers
	// Time is the absolute simulation time at sealing.
	Time time.Duration
	// Interval is the time since the previous block.
	Interval time.Duration
	Reports  int
	Fees     types.Amount
}

// SRAOutcome summarizes one release at the end of the run.
type SRAOutcome struct {
	ID        types.Hash
	Provider  int
	Insurance types.Amount
	Bounty    types.Amount
	NumVulns  int
	// PaidOut is the insurance forfeited to detectors.
	PaidOut types.Amount
	// Confirmed is the number of distinct vulnerabilities chained.
	Confirmed uint64
}

// Result carries a run's artifacts.
type Result struct {
	Blocks    []BlockStat
	SRAs      []SRAOutcome
	Tracker   *incentive.Tracker
	Providers []types.Address
	Detectors []types.Address
	// Chain is the first provider node's chain; every node's agrees.
	Chain    *chain.Chain
	Contract *contract.Contract
	// nodes are the run's provider nodes, indexed like Config.Providers.
	nodes []*node.ProviderNode
	// telemetry is the run's end-of-run metric snapshot (see Telemetry).
	telemetry telemetry.Snapshot
}

// ProviderBalance returns the tracked balance of provider i.
func (r *Result) ProviderBalance(i int) incentive.Balance {
	return r.Tracker.Of(r.Providers[i])
}

// DetectorBalance returns the tracked balance of detector i.
func (r *Result) DetectorBalance(i int) incentive.Balance {
	return r.Tracker.Of(r.Detectors[i])
}

// event is a scheduled action.
type event struct {
	at  time.Duration
	seq int
	fn  func()
}

type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// runner is the mutable state of one simulation.
type runner struct {
	cfg      Config
	rng      *rand.Rand
	net      *p2p.Network
	nodes    []*node.ProviderNode // one per Config.Providers entry
	contract *contract.Contract
	verifier *detection.GroundTruthVerifier
	sealer   *pow.SimSealer
	tracker  *incentive.Tracker
	metrics  *simMetrics

	detectorWallets []*wallet.Wallet
	nonces          map[types.Address]uint64

	events eventQueue
	seq    int
	now    time.Duration

	sraProvider map[types.Hash]int // SRA id → provider index
	sraOutcomes []*SRAOutcome
	// pendingSRAs are announced releases whose detection phase starts
	// once the SRA transaction is chained (paper §V-A: "an SRA is
	// available until it has been verified and recorded in the
	// blockchain").
	pendingSRAs []*pendingSRA
	// pendingReveals maps an R† tx hash to its prepared reveal.
	pendingReveals []*reveal
	blockStats     []BlockStat
}

type pendingSRA struct {
	txHash types.Hash
	sra    *types.SRA
	img    *detection.SystemImage
	active bool
}

type reveal struct {
	initialTxHash types.Hash
	detailed      *types.DetailedReport
	detector      int
	done          bool
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
	if cfg.GasPrice == 0 {
		cfg.GasPrice = 50 * types.GWei
	}
	if cfg.RevealConfirmations == 0 {
		cfg.RevealConfirmations = 1
	}
	for i, rel := range cfg.Releases {
		if rel.Provider < 0 || rel.Provider >= len(cfg.Providers) {
			return nil, fmt.Errorf("sim: release %d references provider %d of %d", i, rel.Provider, len(cfg.Providers))
		}
	}

	r := &runner{
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		net:         p2p.New(p2p.Config{Seed: cfg.Seed}),
		verifier:    detection.NewGroundTruthVerifier(false),
		tracker:     incentive.NewTracker(),
		metrics:     newSimMetrics(),
		nonces:      make(map[types.Address]uint64),
		sraProvider: make(map[types.Hash]int),
	}
	r.contract = contract.New(contract.DefaultParams(), r.verifier)

	// Genesis allocation.
	alloc := make(map[types.Address]types.Amount)
	miners := make([]pow.MinerPower, len(cfg.Providers))
	providerWallets := make([]*wallet.Wallet, len(cfg.Providers))
	for i, spec := range cfg.Providers {
		w := wallet.NewDeterministic(fmt.Sprintf("sim%d-provider-%s", cfg.Seed, spec.Name))
		providerWallets[i] = w
		funds := spec.Funds
		if funds == 0 {
			funds = types.EtherAmount(100_000)
		}
		alloc[w.Address()] = funds
		miners[i] = pow.MinerPower{Name: spec.Name, HashShare: spec.HashShare}
	}
	for _, spec := range cfg.Detectors {
		w := wallet.NewDeterministic(fmt.Sprintf("sim%d-detector-%s", cfg.Seed, spec.Name))
		r.detectorWallets = append(r.detectorWallets, w)
		funds := spec.Funds
		if funds == 0 {
			funds = types.EtherAmount(1000)
		}
		alloc[w.Address()] = funds
	}

	chainCfg := chain.DefaultConfig(r.contract)
	chainCfg.SkipPoWCheck = true
	chainCfg.Alloc = alloc
	for i, w := range providerWallets {
		n, err := node.NewProvider(p2p.NodeID(fmt.Sprintf("provider/%d", i)), w, chainCfg, r.net)
		if err != nil {
			return nil, err
		}
		r.nodes = append(r.nodes, n)
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
	for i := range cfg.Releases {
		rel := cfg.Releases[i]
		idx := i
		r.schedule(rel.At, func() { r.release(idx) })
	}

	if err := r.loop(); err != nil {
		return nil, err
	}
	return r.result(), nil
}

func (r *runner) schedule(at time.Duration, fn func()) {
	if at < r.now {
		at = r.now
	}
	r.seq++
	heap.Push(&r.events, &event{at: at, seq: r.seq, fn: fn})
}

// loop alternates between scheduled submissions and block production until
// the horizon elapses. Every submission and every seal settles the bus, so
// each seal starts from nodes that agree on the head and on their pools:
// with zero latency the lottery's winner never forks.
func (r *runner) loop() error {
	heap.Init(&r.events)
	for {
		ev := r.sealer.Next()
		next := r.now + ev.Interval
		if next > r.cfg.Horizon {
			return nil
		}
		// Fire all submissions due before the block lands.
		for len(r.events) > 0 && r.events[0].at <= next {
			e := heap.Pop(&r.events).(*event)
			r.now = e.at
			e.fn()
		}
		r.now = next
		if err := r.mine(ev); err != nil {
			return err
		}
	}
}

// submit hands tx to provider node i, which pools and gossips it, then
// settles the bus, so every node pools tx before anything else happens.
// Arrival order breaks ties at block assembly, so it has to be the same
// on whichever node wins the next seal.
func (r *runner) submit(i int, tx *types.Transaction) error {
	err := r.nodes[i].SubmitTx(tx)
	r.settle()
	return err
}

// settle delivers gossip round after round until the bus is quiet.
// Latency is zero, so each round delivers everything sent before it.
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

// release fires one SRA: generate the image, register ground truth, submit
// the announcement, and schedule detector discoveries.
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
	r.sraProvider[sra.ID] = rel.Provider
	r.sraOutcomes = append(r.sraOutcomes, &SRAOutcome{
		ID: sra.ID, Provider: rel.Provider,
		Insurance: rel.Insurance, Bounty: rel.Bounty, NumVulns: rel.NumVulns,
	})

	tx := types.NewSRATx(sra, r.nextNonce(w.Address()), r.contract.Params().GasSRA, r.cfg.GasPrice)
	if err := types.SignTx(tx, w); err != nil {
		panic("sim: sign SRA tx: " + err.Error())
	}
	if err := r.submit(rel.Provider, tx); err != nil {
		panic("sim: submit SRA tx: " + err.Error())
	}
	r.pendingSRAs = append(r.pendingSRAs, &pendingSRA{txHash: tx.Hash(), sra: sra, img: img})
}

// activateDetection schedules the detector discovery races for a chained
// SRA. Detectors race per vulnerability: each discovery is an independent
// exponential race at rate ∝ threads.
func (r *runner) activateDetection(sra *types.SRA, img *detection.SystemImage) {
	for di, spec := range r.cfg.Detectors {
		threads := spec.Threads
		if threads <= 0 {
			threads = 1
		}
		capability := spec.Capability
		if capability <= 0 {
			capability = 1
		}
		for _, vuln := range img.Vulns {
			if r.rng.Float64() >= capability {
				continue
			}
			// Subtle vulnerabilities take longer to find but are not
			// missed outright by a capable detector.
			mean := float64(r.cfg.MeanFindTime) * (1 + vuln.Subtlety)
			after := time.Duration(r.rng.ExpFloat64() * mean / float64(threads))
			detectorIdx, finding := di, types.Finding{
				VulnID:   vuln.ID,
				Severity: vuln.Severity,
				Evidence: fmt.Sprintf("found by %s", spec.Name),
			}
			sraID := sra.ID
			r.schedule(r.now+after, func() { r.submitInitial(detectorIdx, sraID, finding) })
		}
	}
}

// submitInitial commits one finding (Phase I) for a detector.
func (r *runner) submitInitial(detectorIdx int, sraID types.Hash, finding types.Finding) {
	w := r.detectorWallets[detectorIdx]
	detailed := &types.DetailedReport{
		SRAID:    sraID,
		Detector: w.Address(),
		Wallet:   w.Address(),
		Findings: []types.Finding{finding},
	}
	if err := types.SignDetailedReport(detailed, w); err != nil {
		panic("sim: sign R*: " + err.Error())
	}
	initial := &types.InitialReport{
		SRAID:      sraID,
		Detector:   w.Address(),
		DetailHash: detailed.CommitmentHash(),
		Wallet:     w.Address(),
	}
	if err := types.SignInitialReport(initial, w); err != nil {
		panic("sim: sign R†: " + err.Error())
	}
	itx := types.NewInitialReportTx(initial, r.nextNonce(w.Address()),
		r.contract.Params().GasInitialReport, r.cfg.GasPrice)
	if err := types.SignTx(itx, w); err != nil {
		panic("sim: sign R† tx: " + err.Error())
	}
	if err := r.submit(r.entry(detectorIdx), itx); err != nil {
		// Detector ran out of funds — a legitimate outcome; skip.
		r.nonces[w.Address()]-- // release the nonce
		return
	}
	r.pendingReveals = append(r.pendingReveals, &reveal{
		initialTxHash: itx.Hash(),
		detailed:      detailed,
		detector:      detectorIdx,
	})
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

// entry is the provider node detector d submits its reports through.
func (r *runner) entry(d int) int { return d % len(r.nodes) }

// mine lets the lottery winner seal a block from its pool and settles the
// bus, then performs incentive attribution and schedules eligible reveals.
func (r *runner) mine(ev pow.SealEvent) error {
	winner := r.nodes[ev.Winner]
	// SealAndPublish lifts a timestamp that sub-millisecond intervals
	// collapsed onto the parent's millisecond: consensus requires strictly
	// increasing time.
	blk, err := winner.SealAndPublish(r.sealer, uint64(r.now/time.Millisecond),
		pow.PaperBlockDifficulty, r.cfg.MaxTxPerBlock, nil)
	if err != nil {
		return fmt.Errorf("sim: %s seals block: %w", winner.ID(), err)
	}
	r.settle()
	v := winner.CurrentView()
	reward := winner.Chain().Config().BlockReward

	// Incentive attribution (Eq. 7-10 flows).
	stat := BlockStat{
		Number:   blk.Header.Number,
		Miner:    ev.Winner,
		Time:     r.now,
		Interval: ev.Interval,
		Reports:  blk.CountReports(),
	}
	r.tracker.Record(winner.Address(), incentive.FlowMining, reward)
	r.metrics.blocks.Inc()
	r.metrics.blockInterval.Observe(uint64(ev.Interval / time.Millisecond))
	r.metrics.blockTxs.Observe(uint64(len(blk.Txs)))
	r.samplePropagation(ev.Winner)
	r.metrics.rewardGwei.Add(uint64(reward))
	for _, tx := range blk.Txs {
		receipt, err := v.ReceiptOf(tx.Hash())
		if err != nil {
			continue
		}
		r.tracker.Record(winner.Address(), incentive.FlowFees, receipt.Fee)
		r.tracker.Record(tx.From, incentive.FlowGas, receipt.Fee)
		stat.Fees += receipt.Fee
		r.metrics.feesGwei.Add(uint64(receipt.Fee))
		r.metrics.gasGwei.Add(uint64(receipt.Fee))
		if receipt.Kind == types.TxDetailedReport && receipt.Success {
			rep, repErr := tx.DetailedReport()
			if repErr != nil {
				continue
			}
			r.tracker.Record(rep.Wallet, incentive.FlowBounty, receipt.Payout.Paid)
			r.tracker.RecordAccepted(rep.Wallet, uint64(len(receipt.Payout.Accepted)))
			r.metrics.bountyGwei.Add(uint64(receipt.Payout.Paid))
			if pIdx, ok := r.sraProvider[rep.SRAID]; ok {
				r.tracker.Record(r.nodes[pIdx].Address(),
					incentive.FlowPunishment, receipt.Payout.Paid)
				r.metrics.punishGwei.Add(uint64(receipt.Payout.Paid))
				for _, o := range r.sraOutcomes {
					if o.ID == rep.SRAID {
						o.PaidOut += receipt.Payout.Paid
						o.Confirmed += uint64(len(receipt.Payout.Accepted))
					}
				}
			}
		}
	}
	r.blockStats = append(r.blockStats, stat)

	// Phase #2 start: detection begins once the SRA is chained.
	for _, ps := range r.pendingSRAs {
		if ps.active {
			continue
		}
		if v.Confirmations(ps.txHash) >= 1 {
			ps.active = true
			r.activateDetection(ps.sra, ps.img)
		}
	}

	// Phase II: queue reveals whose commitments are now confirmed. The
	// whole due batch is built and signed first so the sender pool
	// can warm the ECDSA caches across all CPUs; submission then runs
	// per transaction (a failed one releases its nonce).
	var dueReveals []*reveal
	var dueTxs []*types.Transaction
	for _, pr := range r.pendingReveals {
		if pr.done {
			continue
		}
		if v.Confirmations(pr.initialTxHash) < r.cfg.RevealConfirmations {
			continue
		}
		w := r.detectorWallets[pr.detector]
		dtx := types.NewDetailedReportTx(pr.detailed, r.nextNonce(w.Address()),
			r.contract.Params().GasDetailedReport, r.cfg.GasPrice)
		if err := types.SignTx(dtx, w); err != nil {
			panic("sim: sign R* tx: " + err.Error())
		}
		dueReveals = append(dueReveals, pr)
		dueTxs = append(dueTxs, dtx)
	}
	types.RecoverSenders(dueTxs)
	for i, pr := range dueReveals {
		pr.done = true // submitted, or out of funds and abandoned
		if err := r.submit(r.entry(pr.detector), dueTxs[i]); err != nil {
			r.nonces[r.detectorWallets[pr.detector].Address()]--
		}
	}
	return nil
}

func (r *runner) nextNonce(a types.Address) uint64 {
	n := r.nonces[a]
	r.nonces[a] = n + 1
	return n
}

func (r *runner) result() *Result {
	res := &Result{
		Blocks:    r.blockStats,
		Tracker:   r.tracker,
		Chain:     r.nodes[0].Chain(),
		Contract:  r.contract,
		nodes:     r.nodes,
		telemetry: r.metrics.reg.Snapshot(),
	}
	for _, n := range r.nodes {
		res.Providers = append(res.Providers, n.Address())
	}
	for _, w := range r.detectorWallets {
		res.Detectors = append(res.Detectors, w.Address())
	}
	for _, o := range r.sraOutcomes {
		res.SRAs = append(res.SRAs, *o)
	}
	return res
}
