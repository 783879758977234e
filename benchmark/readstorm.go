package benchmark

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// runReadstorm is the read-path workload: closed-loop readers on C draw
// from a seeded mix of the five consumer reads while A seals a small block
// on a fixed cadence, so every block swaps C's view and drops the
// head-keyed cache generation beside the reads. Rounds are time-based
// here: the writer's cadence, not the readers' speed, fixes how the chain
// grows.
func runReadstorm(ctx context.Context, e *env) (*outcome, error) {
	seed, sz := e.opt.Seed, e.size
	nRounds := len(e.rounds()) // measured rounds; one warm-up round precedes them

	// Preload: settled SRAs, then transfer-only blocks up to rsBlocks.
	provs := genAccounts(seed, "preload-provider", sz.rsSRAs)
	dets := genAccounts(seed, "preload-detector", sz.rsSRAs)
	padders := genAccounts(seed, "padder", 8)
	writers := genAccounts(seed, "writer", 2)
	genesis := make(map[types.Address]types.Amount)
	alloc(genesis, providerFunding, provs...)
	alloc(genesis, providerFunding, dets...)
	alloc(genesis, senderFunding, padders...)
	alloc(genesis, senderFunding, writers...)
	settled, err := genLifecycles(seed, 0, sz.rsSRAs, provs, dets)
	if err != nil {
		return nil, err
	}
	builder, err := newChainBuilder(genesis, settled)
	if err != nil {
		return nil, err
	}
	if err := builder.settle(settled); err != nil {
		return nil, err
	}
	padBlocks := max(0, sz.rsBlocks-int(builder.head()))
	padRounds := (2*padBlocks + len(padders) - 1) / len(padders)
	padTxs, err := genTransfers(padders, padRounds)
	if err != nil {
		return nil, err
	}
	var sraIDs, txHashes []types.Hash
	for _, lc := range settled {
		sraIDs = append(sraIDs, lc.sraID)
		txHashes = append(txHashes, lc.sra.hash, lc.init.hash, lc.detail.hash)
	}
	var flat []signedTx // round-major keeps every padder's nonces in order
	for _, round := range padTxs {
		flat = append(flat, round...)
	}
	for b := 0; b < padBlocks; b++ {
		pair := flat[2*b : 2*b+2]
		if err := builder.extend([]*types.Transaction{pair[0].tx, pair[1].tx}); err != nil {
			return nil, err
		}
		txHashes = append(txHashes, pair[0].hash, pair[1].hash)
	}
	preloadHead := builder.head()

	// The writer's transfers: two per block, enough for every tick of
	// every round with room to spare.
	ticks := (1+nRounds)*int(sz.rsRound/sz.rsWriterEvery+2) + 8
	writerTxs, err := genTransfers(writers, ticks)
	if err != nil {
		return nil, err
	}
	schedules := make([][]readOp, sz.rsReaders)
	for k := range schedules {
		rng := rand.New(rand.NewSource(seed*7919 + int64(k)))
		schedules[k] = genReadSchedule(rng, sz.rsSchedule, sraIDs, txHashes, preloadHead)
	}

	c, err := startCluster(e.rec, clusterSpec{
		root: e.root, names: []string{"A", "C"},
		alloc: genesis, images: settled, preload: builder.encoded(),
	})
	if err != nil {
		return nil, err
	}
	defer c.close()

	out := &outcome{
		opUnit: fmt.Sprintf("%d readers on C, 1 writer on A every %s, 1 observer", sz.rsReaders, sz.rsWriterEvery),
		extra:  make(map[string]float64),
		layers: newProbe(),

		listeners: c.addrs(),
	}

	// Writer and visibility observer run for the whole measurement.
	bg, stopBG := context.WithCancel(ctx)
	var bgWG sync.WaitGroup
	w := &storeWriter{c: c, txs: writerTxs, sealed: make(chan sealedBlock, 16), rec: e.rec}
	bgWG.Add(2)
	go func() { defer bgWG.Done(); w.run(bg, sz.rsWriterEvery) }()
	go func() { defer bgWG.Done(); w.observe(bg) }()
	defer func() { stopBG(); bgWG.Wait() }()

	readers := make([]*reader, sz.rsReaders)
	for k := range readers {
		readers[k] = &reader{
			cl: newClient(e.rec), base: c.observer.url, sched: schedules[k],
			sraIDs: sraIDs, txHashes: txHashes, total: sz.rsSRAs, preloadHead: preloadHead,
			etags: make(map[string]string),
		}
		defer readers[k].cl.close()
	}
	runRound := func() (reads, failed int, lat []float64, elapsed time.Duration) {
		var wg sync.WaitGroup
		t0 := time.Now()
		until := t0.Add(sz.rsRound)
		for _, rd := range readers {
			wg.Add(1)
			go func(rd *reader) { defer wg.Done(); rd.run(ctx, until) }(rd)
		}
		wg.Wait()
		elapsed = time.Since(t0)
		for _, rd := range readers {
			reads += rd.ok
			failed += rd.failed
			lat = append(lat, rd.latMs...)
			if rd.firstErr != nil && len(out.violations) < 4 {
				out.violate("reader: %v", rd.firstErr)
			}
			rd.ok, rd.failed, rd.latMs, rd.firstErr = 0, 0, nil, nil
		}
		out.layers.sample()
		return reads, failed, lat, elapsed
	}

	runRound() // warm-up, discarded
	w.take()
	c.takeSeals()
	out.setupDone = e.endSetup()

	var visMs, lagMs []float64
	e.measure(out, c.pumpCalls, func(_ int, traced bool) (roundResult, bool) {
		reads, failed, lat, elapsed := runRound()
		seals := c.takeSeals()
		vis, lag := w.take()
		out.attempted += reads + failed
		out.failed += failed
		out.latenciesMs = append(out.latenciesMs, lat...)
		if traced || e.rec == nil {
			visMs = append(visMs, vis...)
			lagMs = append(lagMs, lag...)
		}
		return roundResult{ops: reads, txs: 2 * seals.blocks, rate: float64(reads) / elapsed.Seconds(), seals: seals}, true
	})
	stopBG()
	bgWG.Wait()
	if err := w.err(); err != nil {
		out.violate("writer: %v", err)
	}
	if len(visMs) == 0 {
		out.violate("no block became visible on C during the measurement")
	}
	out.extra["bench.write_visible_p50_ms"] = median(visMs)
	out.extra["bench.writer_lag_ms_p50"] = median(lagMs)

	c.checkAgreement(ctx, out)
	return out, nil
}

// sealedBlock is what the writer hands the visibility observer.
type sealedBlock struct {
	number uint64
	at     time.Time // when SealAndPublish returned
}

// storeWriter seals one two-transfer block on A per tick, submitting the
// transfers through POST /v1/tx on A like any client, and measures how
// late its ticks ran and how long each block took to show on C.
type storeWriter struct {
	c      *cluster
	txs    [][]signedTx
	sealed chan sealedBlock
	rec    *recorder

	mu      sync.Mutex
	visMs   []float64
	lagMs   []float64
	failure error
}

func (w *storeWriter) fail(err error) {
	w.mu.Lock()
	if w.failure == nil {
		w.failure = err
	}
	w.mu.Unlock()
}

func (w *storeWriter) err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.failure
}

// take returns and resets the samples gathered since the last call.
func (w *storeWriter) take() (visMs, lagMs []float64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	visMs, lagMs = w.visMs, w.lagMs
	w.visMs, w.lagMs = nil, nil
	return visMs, lagMs
}

func (w *storeWriter) run(ctx context.Context, every time.Duration) {
	defer close(w.sealed)
	cl := newClient(w.rec)
	defer cl.close()
	cl.ref = "writer"
	tick := time.NewTicker(every)
	defer tick.Stop()
	for i := 0; ; i++ {
		var due time.Time
		select {
		case <-ctx.Done():
			return
		case due = <-tick.C:
		}
		lag := time.Since(due)
		if i >= len(w.txs) {
			w.fail(fmt.Errorf("ran out of pre-signed transfers after %d blocks", i))
			return
		}
		for _, st := range w.txs[i] {
			if err := cl.post(ctx, w.c.sealer.url, st.body); err != nil {
				if ctx.Err() == nil {
					w.fail(fmt.Errorf("POST to A: %w", err))
				}
				return
			}
		}
		blk, err := w.c.sealOnce()
		at := time.Now()
		if err != nil {
			if ctx.Err() == nil {
				w.fail(fmt.Errorf("seal: %w", err))
			}
			return
		}
		if len(blk.Txs) != len(w.txs[i]) {
			w.fail(fmt.Errorf("block %d carries %d transactions, want %d", blk.Header.Number, len(blk.Txs), len(w.txs[i])))
			return
		}
		w.mu.Lock()
		w.lagMs = append(w.lagMs, ms(lag))
		w.mu.Unlock()
		select {
		case w.sealed <- sealedBlock{blk.Header.Number, at}:
		case <-ctx.Done():
			return
		}
	}
}

// observe waits, for each sealed block, until C's pump hints that head
// and /v1/status on C shows it.
func (w *storeWriter) observe(ctx context.Context) {
	cl := newClient(nil)
	defer cl.close()
	url := w.c.observer.url + "/v1/status"
	for sb := range w.sealed {
		need := sb.number
		for {
			head, err := w.c.hint.wait(ctx, need)
			if err != nil {
				return
			}
			var st statusBody
			status, err := cl.getJSON(ctx, url, &st)
			if err != nil || status != http.StatusOK {
				if ctx.Err() == nil {
					w.fail(fmt.Errorf("GET %s: http %d: %v", url, status, err))
				}
				return
			}
			if st.HeadNumber >= sb.number {
				now := time.Now()
				w.mu.Lock()
				w.visMs = append(w.visMs, ms(now.Sub(sb.at)))
				w.mu.Unlock()
				if w.rec.enabled() {
					w.rec.add(span{Name: spanWriteVis, Ref: fmt.Sprintf("blk%d", sb.number)}, sb.at, now)
				}
				break
			}
			need = head + 1
		}
	}
}

// reader is one closed-loop consumer on C.
type reader struct {
	cl          *client
	base        string
	sched       []readOp
	pos         int
	sraIDs      []types.Hash
	txHashes    []types.Hash
	total       int
	preloadHead uint64
	// cursor is the SRA page walk's position; etags the last ETag per URL.
	cursor string
	etags  map[string]string

	ok, failed int
	latMs      []float64
	firstErr   error
}

func (rd *reader) run(ctx context.Context, until time.Time) {
	for time.Now().Before(until) && ctx.Err() == nil {
		op := rd.sched[rd.pos%len(rd.sched)]
		rd.pos++
		url := rd.base + op.url
		if op.kind == readSRAPage {
			url = fmt.Sprintf("%s/v1/sras?limit=%d", rd.base, sraPageLimit)
			if rd.cursor != "" {
				url += "&cursor=" + rd.cursor
			}
		}
		etag := ""
		if op.replayETag {
			etag = rd.etags[url]
		}
		t0 := time.Now()
		status, body, gotETag, err := rd.cl.do(ctx, http.MethodGet, url, nil, etag)
		t1 := time.Now()
		if err == nil {
			err = rd.check(op, status, body, etag != "")
		}
		if err != nil {
			if ctx.Err() != nil {
				return
			}
			rd.failed++
			if rd.firstErr == nil {
				rd.firstErr = fmt.Errorf("GET %s: %w", url, err)
			}
			continue
		}
		if gotETag != "" && op.kind != readSRAPage {
			// Page URLs carry a cursor bound to the head, so they never
			// repeat; remembering their ETags would only grow the map.
			rd.etags[url] = gotETag
		}
		rd.ok++
		rd.latMs = append(rd.latMs, ms(t1.Sub(t0)))
	}
}

// check validates one answer against what the schedule asked for.
func (rd *reader) check(op readOp, status int, body []byte, conditional bool) error {
	if status == http.StatusNotModified {
		if !conditional {
			return fmt.Errorf("304 to an unconditional request")
		}
		return nil
	}
	if status != http.StatusOK {
		return fmt.Errorf("http %d: %.120s", status, body)
	}
	switch op.kind {
	case readReference:
		var v referenceBody
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if v.ID != rd.sraIDs[op.idx].String() || v.ConfirmedVulns != findingsPerSRA {
			return fmt.Errorf("reference body %+v", v)
		}
	case readSRAPage:
		var v sraPageBody
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if v.Total != rd.total || len(v.SRAs) > sraPageLimit {
			return fmt.Errorf("sra page: total %d, %d entries", v.Total, len(v.SRAs))
		}
		for _, s := range v.SRAs {
			if s.ConfirmedVulns != findingsPerSRA {
				return fmt.Errorf("sra %s shows %d confirmed vulnerabilities", s.ID, s.ConfirmedVulns)
			}
		}
		rd.cursor = v.NextCursor
		if len(v.SRAs) < sraPageLimit {
			rd.cursor = "" // walked off the end: start over
		}
	case readBlocks:
		var v blocksBody
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if v.From != op.from || len(v.Blocks) != blocksPerRange {
			return fmt.Errorf("block range from %d: got from %d, %d blocks", op.from, v.From, len(v.Blocks))
		}
		for i, b := range v.Blocks {
			if b.Number != op.from+uint64(i) {
				return fmt.Errorf("block range from %d: entry %d is block %d", op.from, i, b.Number)
			}
		}
	case readReceipt:
		var v receiptBody
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if v.TxHash != rd.txHashes[op.idx].String() || !v.Success || v.Confirmations == 0 {
			return fmt.Errorf("receipt body %+v", v)
		}
	case readStatus:
		var v statusBody
		if err := json.Unmarshal(body, &v); err != nil {
			return err
		}
		if v.HeadNumber < rd.preloadHead {
			return fmt.Errorf("status head %d below the preloaded head %d", v.HeadNumber, rd.preloadHead)
		}
	}
	return nil
}
