package benchmark

import (
	"context"
	"fmt"
	"maps"
	"net/http"
	"sync"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// lifecycleClients is the number of closed-loop clients (one connection
// each to B and to C, never used at the same time). Eight, not nproc: a
// block that carries a contract transaction costs several times an empty
// one (the contract account's digest), so two clients are bistable — in
// phase they share those blocks, out of phase they do not, and a run
// flips between ~9 and ~13 lifecycles/s, sometimes mid-run. Eight clients
// wake on the same head hints and stay bunched, so the expensive blocks
// are shared in the same pattern run after run. The clients spend their
// time blocked on C's head hint, not on a CPU.
const lifecycleClients = 8

// runLifecycle is the paper's loop on three nodes: each client POSTs an
// SRA to B, waits for 1 confirmation on C, POSTs R†, waits for 2, POSTs
// R*, waits for K, then reads /v1/reference/{id} on C and checks it
// against the seeded ground truth.
func runLifecycle(ctx context.Context, e *env) (*outcome, error) {
	seed, sz := e.opt.Seed, e.size
	nRounds := len(e.rounds()) // measured rounds; one warm-up round precedes them
	total := (1 + nRounds) * sz.lcPerRound

	// Inputs: a preload of settled SRAs, each under its own keys so all of
	// them settle in three block groups, then the measured lifecycles under
	// one provider/detector pair per client.
	preProv := genAccounts(seed, "preload-provider", sz.lcPreload)
	preDet := genAccounts(seed, "preload-detector", sz.lcPreload)
	providers := genAccounts(seed, "provider", lifecycleClients)
	detectors := genAccounts(seed, "detector", lifecycleClients)
	genesis := make(map[types.Address]types.Amount)
	alloc(genesis, providerFunding, preProv...)
	alloc(genesis, providerFunding, preDet...)
	alloc(genesis, providerFunding, providers...)
	alloc(genesis, providerFunding, detectors...)
	preloaded, err := genLifecycles(seed, 0, sz.lcPreload, preProv, preDet)
	if err != nil {
		return nil, err
	}
	lcs, err := genLifecycles(seed, sz.lcPreload, total, providers, detectors)
	if err != nil {
		return nil, err
	}
	images := append(append([]*lifecycle(nil), preloaded...), lcs...)
	builder, err := newChainBuilder(genesis, images)
	if err != nil {
		return nil, err
	}
	if err := builder.settle(preloaded); err != nil {
		return nil, err
	}

	c, err := startCluster(e.rec, clusterSpec{
		root: e.root, names: []string{"A", "B", "C"},
		alloc: genesis, images: images, preload: builder.encoded(),
	})
	if err != nil {
		return nil, err
	}
	defer c.close()
	if e.rec != nil {
		for i, lc := range lcs {
			ref := fmt.Sprintf("lc%d", i)
			for _, st := range []signedTx{lc.sra, lc.init, lc.detail} {
				e.rec.nameKey(e.rec.key(types.EncodeTx(st.tx)), ref)
			}
		}
	}
	c.startSealing()

	out := &outcome{
		opUnit: fmt.Sprintf("%d clients POST to B and read from C", lifecycleClients),
		extra:  make(map[string]float64),
		layers: newProbe(),

		listeners: c.addrs(),
	}
	clients := make([]*client, lifecycleClients)
	for k := range clients {
		clients[k] = newClient(e.rec)
		defer clients[k].close()
	}

	// runRound runs lifecycles [first, first+n) split over the clients by
	// index modulo the client count (the split their keys were signed under).
	var accepted, paid uint64
	runRound := func(first int, measured bool) (time.Duration, error) {
		var (
			mu   sync.Mutex
			wg   sync.WaitGroup
			errs []error
		)
		t0 := time.Now()
		for k, cl := range clients {
			wg.Add(1)
			go func(k int, cl *client) {
				defer wg.Done()
				for i := first + k; i < first+sz.lcPerRound; i += lifecycleClients {
					cl.ref = fmt.Sprintf("lc%d", i)
					start := time.Now()
					r, err := oneLifecycle(ctx, cl, c, lcs[i])
					end := time.Now()
					out.layers.sample()
					mu.Lock()
					if measured {
						out.attempted++
						if err != nil {
							out.failed++
						} else {
							out.latenciesMs = append(out.latenciesMs, ms(end.Sub(start)))
						}
					}
					if err != nil {
						errs = append(errs, fmt.Errorf("lifecycle %d: %w", i, err))
						mu.Unlock()
						return // this client's later nonces depend on this one
					}
					accepted += uint64(r.Accepted)
					paid += r.PaidGwei
					mu.Unlock()
					if e.rec.enabled() {
						e.rec.add(span{Name: spanOp, Ref: cl.ref}, start, end)
					}
				}
			}(k, cl)
		}
		wg.Wait()
		elapsed := time.Since(t0)
		if err := c.sealError(); err != nil {
			errs = append(errs, fmt.Errorf("sealer: %w", err))
		}
		for _, err := range errs {
			out.violate("%v", err)
		}
		if len(errs) > 0 {
			return elapsed, errs[0]
		}
		return elapsed, nil
	}

	// Warm-up round, discarded.
	if _, err := runRound(0, false); err != nil {
		out.setupDone = time.Now()
		return out, nil
	}
	c.takeSeals()
	accepted, paid = 0, 0
	out.setupDone = e.endSetup()

	e.measure(out, c.pumpCalls, func(r int, _ bool) (roundResult, bool) {
		elapsed, err := runRound(r*sz.lcPerRound, true)
		return roundResult{
			ops: sz.lcPerRound, txs: 3 * sz.lcPerRound,
			rate: float64(sz.lcPerRound) / elapsed.Seconds(), seals: c.takeSeals(),
		}, err == nil
	})

	// Output checks.
	measured := nRounds * sz.lcPerRound
	if want := uint64(findingsPerSRA * measured); accepted != want && len(out.violations) == 0 {
		out.violate("contract.findings_accepted = %d, want %d (3 × %d lifecycles)", accepted, want, measured)
	}
	out.extra["contract.findings_accepted"] = float64(accepted)
	out.extra["contract.payout_gwei"] = float64(paid)
	c.checkAgreement(ctx, out)
	return out, nil
}

// oneLifecycle drives one SRA from release to a verified remote read and
// returns the R* receipt as C reported it.
func oneLifecycle(ctx context.Context, cl *client, c *cluster, lc *lifecycle) (receiptBody, error) {
	steps := []struct {
		name string
		tx   signedTx
		conf uint64
	}{
		{"SRA", lc.sra, 1},
		{"R†", lc.init, 2},
		{"R*", lc.detail, confirmations},
	}
	var last receiptBody
	for _, s := range steps {
		seen := c.hint.current()
		if err := cl.post(ctx, c.entry.url, s.tx.body); err != nil {
			return last, fmt.Errorf("POST %s: %w", s.name, err)
		}
		r, err := waitConfirmed(ctx, cl, c, s.tx.hash.String(), s.conf, seen)
		if err != nil {
			return last, fmt.Errorf("%s: %w", s.name, err)
		}
		if !r.Success {
			return last, fmt.Errorf("%s failed on chain: %s", s.name, r.Error)
		}
		last = r
	}
	if last.Accepted != findingsPerSRA {
		return last, fmt.Errorf("R* receipt accepted %d findings, want %d", last.Accepted, findingsPerSRA)
	}
	var ref referenceBody
	url := c.observer.url + "/v1/reference/" + lc.sraID.String()
	status, err := cl.getJSON(ctx, url, &ref)
	if err != nil {
		return last, err
	}
	if status != http.StatusOK {
		return last, fmt.Errorf("GET reference: http %d", status)
	}
	if ref.ID != lc.sraID.String() || ref.ConfirmedVulns != findingsPerSRA ||
		!maps.Equal(ref.BySeverity, lc.wantBySeverity) || ref.SafeToDeploy {
		return last, fmt.Errorf("reference %+v does not match ground truth %v", ref, lc.wantBySeverity)
	}
	return last, nil
}
