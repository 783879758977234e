// Package sim is SmartCrowd's experiment harness: a discrete-event
// simulation that drives a full platform — mining providers (weighted PoW
// lottery), lightweight detectors racing per-vulnerability through the
// two-phase report protocol, SRA releases with escrowed insurance — over
// simulated hours in milliseconds of wall-clock time. Every run is
// deterministic given its seed.
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
	"github.com/smartcrowd/smartcrowd/internal/pow"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/txpool"
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
	Chain     *chain.Chain
	Contract  *contract.Contract
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
	chain    *chain.Chain
	contract *contract.Contract
	verifier *detection.GroundTruthVerifier
	sealer   *pow.SimSealer
	pool     *txpool.Pool
	tracker  *incentive.Tracker
	metrics  *simMetrics

	providerWallets []*wallet.Wallet
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
		verifier:    detection.NewGroundTruthVerifier(false),
		pool:        txpool.New(txpool.Config{Capacity: 1 << 16}),
		tracker:     incentive.NewTracker(),
		metrics:     newSimMetrics(),
		nonces:      make(map[types.Address]uint64),
		sraProvider: make(map[types.Hash]int),
	}
	r.contract = contract.New(contract.DefaultParams(), r.verifier)

	// Genesis allocation.
	alloc := make(map[types.Address]types.Amount)
	miners := make([]pow.MinerPower, len(cfg.Providers))
	for i, spec := range cfg.Providers {
		w := wallet.NewDeterministic(fmt.Sprintf("sim%d-provider-%s", cfg.Seed, spec.Name))
		r.providerWallets = append(r.providerWallets, w)
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
	c, err := chain.New(chainCfg)
	if err != nil {
		return nil, err
	}
	r.chain = c

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

	r.loop()
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
// the horizon elapses.
func (r *runner) loop() {
	heap.Init(&r.events)
	for {
		ev := r.sealer.Next()
		next := r.now + ev.Interval
		if next > r.cfg.Horizon {
			return
		}
		// Fire all submissions due before the block lands.
		for len(r.events) > 0 && r.events[0].at <= next {
			e := heap.Pop(&r.events).(*event)
			r.now = e.at
			e.fn()
		}
		r.now = next
		r.mine(ev)
	}
}

// release fires one SRA: generate the image, register ground truth, submit
// the announcement, and schedule detector discoveries.
func (r *runner) release(relIdx int) {
	rel := r.cfg.Releases[relIdx]
	w := r.providerWallets[rel.Provider]
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
	if err := r.pool.Add(tx, r.chain.State()); err != nil {
		panic("sim: pool SRA tx: " + err.Error())
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
	if err := r.pool.Add(itx, r.chain.State()); err != nil {
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
	for i := range r.providerWallets {
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

// mine lets the lottery winner seal a block from the pool, then performs
// incentive attribution and schedules eligible reveals.
func (r *runner) mine(ev pow.SealEvent) {
	minerWallet := r.providerWallets[ev.Winner]
	v := r.chain.CurrentView()
	txs := r.pool.Pending(v.State(), r.cfg.MaxTxPerBlock)
	head := v.Head()
	// Sub-millisecond sealing intervals can collapse onto the parent's
	// millisecond timestamp; consensus requires strictly increasing time.
	timestamp := uint64(r.now / time.Millisecond)
	if timestamp <= head.Header.Time {
		timestamp = head.Header.Time + 1
	}
	blk, err := r.chain.BuildBlock(
		head.ID(),
		minerWallet.Address(),
		timestamp,
		pow.PaperBlockDifficulty,
		txs,
	)
	if err != nil {
		panic("sim: build block: " + err.Error())
	}
	blk.Header.Nonce = r.sealer.NonceFor()
	if _, err := r.chain.InsertBlock(blk); err != nil {
		panic("sim: insert block: " + err.Error())
	}
	for _, tx := range blk.Txs {
		r.pool.Remove(tx.Hash())
	}
	v = r.chain.CurrentView() // the view the block published
	r.pool.Prune(v.State())

	// Incentive attribution (Eq. 7-10 flows).
	stat := BlockStat{
		Number:   blk.Header.Number,
		Miner:    ev.Winner,
		Time:     r.now,
		Interval: ev.Interval,
		Reports:  blk.CountReports(),
	}
	r.tracker.Record(minerWallet.Address(), incentive.FlowMining, r.chain.Config().BlockReward)
	r.metrics.blocks.Inc()
	r.metrics.blockInterval.Observe(uint64(ev.Interval / time.Millisecond))
	r.metrics.blockTxs.Observe(uint64(len(blk.Txs)))
	r.samplePropagation(ev.Winner)
	r.metrics.rewardGwei.Add(uint64(r.chain.Config().BlockReward))
	for _, tx := range blk.Txs {
		receipt, err := v.ReceiptOf(tx.Hash())
		if err != nil {
			continue
		}
		r.tracker.Record(minerWallet.Address(), incentive.FlowFees, receipt.Fee)
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
				r.tracker.Record(r.providerWallets[pIdx].Address(),
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
	// can warm the ECDSA caches across all CPUs; admission then runs
	// per transaction with the same ordering and failure semantics as
	// sequential adds (a failed add releases its nonce).
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
		if err := r.pool.Add(dueTxs[i], v.State()); err != nil {
			r.nonces[r.detectorWallets[pr.detector].Address()]--
			pr.done = true // out of funds; abandon
			continue
		}
		pr.done = true
	}
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
		Chain:     r.chain,
		Contract:  r.contract,
		telemetry: r.metrics.reg.Snapshot(),
	}
	for _, w := range r.providerWallets {
		res.Providers = append(res.Providers, w.Address())
	}
	for _, w := range r.detectorWallets {
		res.Detectors = append(res.Detectors, w.Address())
	}
	for _, o := range r.sraOutcomes {
		res.SRAs = append(res.SRAs, *o)
	}
	return res
}
