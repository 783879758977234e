package benchmark

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// runTxflood is the write-throughput workload: every round, each funded
// sender's next pre-signed transfer is POSTed to B by closed-loop
// connections while one observer follows C through /v1/blocks and marks a
// transaction committed once it is K blocks deep there. Blocks are large
// and touch no contract storage, so per-transaction costs dominate.
func runTxflood(ctx context.Context, e *env) (*outcome, error) {
	seed, sz := e.opt.Seed, e.size
	nRounds := len(e.rounds()) // measured rounds; one warm-up round precedes them
	senders := genAccounts(seed, "sender", sz.floodSenders)
	genesis := make(map[types.Address]types.Amount, len(senders))
	alloc(genesis, senderFunding, senders...)
	txs, err := genTransfers(senders, 1+nRounds)
	if err != nil {
		return nil, err
	}

	c, err := startCluster(e.rec, clusterSpec{root: e.root, names: []string{"A", "B", "C"}, alloc: genesis})
	if err != nil {
		return nil, err
	}
	defer c.close()
	c.startSealing()

	out := &outcome{
		opUnit: fmt.Sprintf("%d connections POST to B, 1 observer follows C", sz.floodConns),
		extra:  make(map[string]float64),
		layers: newProbe(),

		listeners: c.addrs(),
	}
	posters := make([]*client, sz.floodConns)
	for k := range posters {
		posters[k] = newClient(e.rec)
		defer posters[k].close()
	}
	obs := newClient(e.rec)
	defer obs.close()
	obs.ref = "observer"
	next := c.hint.current() + 1 // first block the observer has not read

	// runRound posts one round and follows C until every transaction of it
	// is K-confirmed there.
	runRound := func(r int, measured bool) (time.Duration, error) {
		round := txs[r]
		n := len(round)
		index := make(map[string]int, n)
		refs := make([]string, n) // span refs, traced rounds only
		for i, st := range round {
			index[st.hash.String()] = i
			if e.rec.enabled() {
				refs[i] = fmt.Sprintf("tx%d.%d", r, i)
				e.rec.nameKey(e.rec.key(types.EncodeTx(st.tx)), refs[i])
			}
		}
		sentAt := make([]atomic.Int64, n) // unix nanos of the POST
		var (
			cursor   atomic.Int64
			rejected atomic.Int64
			wg       sync.WaitGroup
		)
		roundCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		t0 := time.Now()
		for _, cl := range posters {
			wg.Add(1)
			go func(cl *client) {
				defer wg.Done()
				for {
					i := int(cursor.Add(1)) - 1
					if i >= n || roundCtx.Err() != nil {
						return
					}
					for {
						seen := c.hint.current()
						cl.ref = refs[i]
						sentAt[i].Store(time.Now().UnixNano())
						err := cl.post(roundCtx, c.entry.url, round[i].body)
						if err == nil {
							break
						}
						var se *statusError
						if errors.As(err, &se) && se.status == http.StatusUnprocessableEntity && strings.Contains(se.body, "pool capacity") {
							// Back-pressure: wait for the next block to drain the pool,
							// then retry (the middleware counts the refusal).
							if _, err := c.hint.wait(roundCtx, seen+1); err != nil {
								return
							}
							continue
						}
						rejected.Add(1)
						break
					}
				}
			}(cl)
		}

		// The observer: on each new head read the blocks not yet seen and
		// confirm what is now K deep.
		blockOf := make(map[uint64][]int) // block number → tx indices
		confirmed := 0
		var followErr error
		for confirmed+int(rejected.Load()) < n && followErr == nil {
			head, err := c.hint.wait(roundCtx, next)
			if err != nil {
				followErr = fmt.Errorf("round stalled with %d of %d confirmed: %w", confirmed, n, err)
				break
			}
			for next <= head && followErr == nil {
				to := min(head, next+99)
				var page blocksBody
				url := fmt.Sprintf("%s/v1/blocks?from=%d&to=%d", c.observer.url, next, to)
				status, err := obs.getJSON(roundCtx, url, &page)
				if err != nil || status != http.StatusOK {
					followErr = fmt.Errorf("GET %s: http %d: %v", url, status, err)
					break
				}
				for _, b := range page.Blocks {
					for _, h := range b.TxHashes {
						if i, ok := index[h]; ok {
							blockOf[b.Number] = append(blockOf[b.Number], i)
						}
					}
				}
				next = to + 1
			}
			now := time.Now()
			for num, idxs := range blockOf {
				if num+confirmations-1 > head {
					continue
				}
				for _, i := range idxs {
					sent := time.Unix(0, sentAt[i].Load())
					if measured {
						out.latenciesMs = append(out.latenciesMs, ms(now.Sub(sent)))
					}
					if e.rec.enabled() {
						e.rec.add(span{Name: spanOp, Ref: refs[i], N: int(num)}, sent, now)
					}
				}
				confirmed += len(idxs)
				delete(blockOf, num)
			}
			out.layers.sample()
		}
		elapsed := time.Since(t0)
		cancel()
		wg.Wait()
		if measured {
			out.attempted += n
			out.failed += n - confirmed
		}
		if err := c.sealError(); err != nil && followErr == nil {
			followErr = fmt.Errorf("sealer: %w", err)
		}
		if followErr == nil && confirmed < n {
			followErr = fmt.Errorf("%d transactions rejected at admission", n-confirmed)
		}
		return elapsed, followErr
	}

	if _, err := runRound(0, false); err != nil {
		out.violate("warm-up: %v", err)
		out.setupDone = time.Now()
		return out, nil
	}
	c.takeSeals()
	out.setupDone = e.endSetup()

	e.measure(out, c.pumpCalls, func(r int, _ bool) (roundResult, bool) {
		elapsed, err := runRound(r, true)
		if err != nil {
			out.violate("round %d: %v", r, err)
		}
		return roundResult{
			ops: sz.floodSenders, txs: sz.floodSenders,
			rate: float64(sz.floodSenders) / elapsed.Seconds(), seals: c.takeSeals(),
		}, err == nil
	})
	c.checkAgreement(ctx, out)
	return out, nil
}
