package benchmark

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/telemetry"
)

// Options selects one run.
type Options struct {
	Workload string
	// Seed drives every generated input.
	Seed int64
	// Seconds sizes the measured phase: the work per round is fixed from it
	// (see sizeFor), so a run takes about this long on the reference box
	// and two commits always do the same work.
	Seconds int
	// Trace installs the decorators, records spans and reports the
	// per-layer metrics instead of the end-to-end ones.
	Trace bool
	// Tiny shrinks every workload to smoke-test size.
	Tiny bool
	// WorkDir holds the run's temporary root (removed on every exit path)
	// and, for traced runs, <workload>.trace.json.
	WorkDir string
	// Started is when the process started; setup_s counts from it.
	Started time.Time
	// Out receives the human-readable report.
	Out io.Writer
}

// Result is what a run measured.
type Result struct {
	Workload  string
	Correct   bool
	Attempted int
	Failed    int
	// EndToEnd holds the gated end-to-end metrics and the informational
	// speed metrics by name. For a traced run they are indicative only.
	EndToEnd map[string]float64
	// PerLayer holds the per-layer metrics of a traced run (nil otherwise).
	PerLayer map[string]float64
	// Violations lists every output check that failed.
	Violations []string
	// TempRoot is where the run kept its datadirs, and Listeners every
	// address a node listened on; all are gone once Run returns.
	TempRoot  string
	Listeners []string
}

// measuredRounds is the number of equal rounds after the discarded
// warm-up round. A traced run measures one more so traced and untraced
// rounds alternate evenly.
const measuredRounds = 5

// deadline is each workload's own limit; a run that exceeds it fails by
// itself rather than waiting to be killed.
const deadline = 150 * time.Second

// env is what a workload gets.
type env struct {
	opt  Options
	root string
	rec  *recorder
	size sizing
	// cpu0/alloc0 are the process's CPU time and allocated bytes when
	// set-up ended.
	cpu0   time.Duration
	alloc0 uint64
}

// endSetup marks the end of set-up: it collects set-up's garbage, hands
// the freed pages back and restarts the resident-set high-water mark, so
// peak_rss_mb is the cluster at work rather than the scaffolding that
// built its inputs, then returns the time the first measured operation
// may start.
func (e *env) endSetup() time.Time {
	runtime.GC()
	debug.FreeOSMemory()
	resetPeakRSS()
	e.cpu0 = cpuTime()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	e.alloc0 = m.TotalAlloc
	return time.Now()
}

// rounds returns, for each measured round, whether it is traced.
func (e *env) rounds() []bool {
	if e.rec == nil {
		return make([]bool, measuredRounds)
	}
	plan := make([]bool, measuredRounds+1)
	for i := range plan {
		plan[i] = i%2 == 1
	}
	return plan
}

// roundResult is what a workload reports for one measured round.
type roundResult struct {
	ops, txs int     // operations completed, transactions committed
	rate     float64 // work units per second
	seals    sealStats
}

// measure runs the measured rounds: it switches tracing per the plan,
// brackets traced rounds with the probe and files each round's rate under
// traced or untraced. pumps reads the pump-call counter; round runs
// measured round r (1-based; 0 was the warm-up) and returns false to stop.
func (e *env) measure(out *outcome, pumps func() int64, round func(r int, traced bool) (roundResult, bool)) {
	for i, traced := range e.rounds() {
		if e.rec != nil {
			e.rec.on.Store(traced)
		}
		if traced {
			out.layers.begin(pumps())
		}
		res, ok := round(i+1, traced)
		if traced {
			out.layers.end(res.ops, res.txs, pumps(), res.seals)
			e.rec.on.Store(false)
		}
		if !ok {
			return
		}
		if traced {
			out.tracedRates = append(out.tracedRates, res.rate)
		} else {
			out.rates = append(out.rates, res.rate)
		}
	}
}

// checkAgreement is the end-of-run check for clustered workloads: once
// in-flight gossip has drained, every node reports the sealer's head id
// and state root.
func (c *cluster) checkAgreement(ctx context.Context, out *outcome) {
	ctx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	if err := c.settle(ctx); err != nil {
		out.violate("%v", err)
	} else if err := c.verifyAgreement(); err != nil {
		out.violate("%v", err)
	}
}

// untracedSpecs lists what an untraced run measures: the gated metrics,
// then the informational ones.
func untracedSpecs() []metricSpec {
	return append(append([]metricSpec(nil), endToEnd...), informational...)
}

// outcome is what a workload hands back to Run.
type outcome struct {
	// setupDone is when the first measured operation started.
	setupDone time.Time
	attempted int
	failed    int
	// rates are per-round throughputs of untraced rounds, tracedRates of
	// traced ones.
	rates, tracedRates []float64
	// latenciesMs are the measured operations' latencies.
	latenciesMs []float64
	// opUnit names what work_per_s counts.
	opUnit string
	// extra are workload-specific per-layer metrics measured by the
	// workload itself (write-visible, reopen, writer lag, contract sums).
	extra      map[string]float64
	violations []string
	// layers is the per-layer input gathered over traced rounds.
	layers *probe
	// listeners are the addresses the workload's nodes listened on.
	listeners []string
}

func (o *outcome) violate(format string, args ...any) {
	o.violations = append(o.violations, fmt.Sprintf(format, args...))
}

type workloadFunc func(ctx context.Context, e *env) (*outcome, error)

var workloadFuncs = map[string]workloadFunc{
	"lifecycle": runLifecycle,
	"txflood":   runTxflood,
	"readstorm": runReadstorm,
	"coldsync":  runColdsync,
}

// Run executes one workload and returns its result. Whatever happens —
// success, failed checks, cancellation, the internal deadline — every
// server, transport, pump and chain it started is closed and the
// temporary root is removed before it returns.
func Run(ctx context.Context, opt Options) (res *Result, err error) {
	fn, ok := workloadFuncs[opt.Workload]
	if !ok {
		return nil, fmt.Errorf("unknown workload %q (have %s)", opt.Workload, strings.Join(workloadNames(), ", "))
	}
	if opt.Seconds < 1 {
		return nil, errors.New("seconds must be at least 1")
	}
	if opt.Out == nil {
		opt.Out = io.Discard
	}
	if opt.Started.IsZero() {
		opt.Started = time.Now()
	}
	if err := os.MkdirAll(opt.WorkDir, 0o755); err != nil {
		return nil, err
	}
	root, err := os.MkdirTemp(opt.WorkDir, "run-")
	if err != nil {
		return nil, err
	}
	defer func() {
		if rmErr := os.RemoveAll(root); rmErr != nil && err == nil {
			err = rmErr
		}
	}()

	ctx, cancel := context.WithTimeout(ctx, deadline)
	defer cancel()
	logs, restoreLogs := quietLogs()
	defer restoreLogs()

	e := &env{opt: opt, root: root, size: sizeFor(opt.Tiny, opt.Seconds)}
	if opt.Trace {
		e.rec = newRecorder()
	}
	before := telemetry.TakeSnapshot()
	out, err := fn(ctx, e)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", opt.Workload, err)
	}
	if err := ctx.Err(); err != nil {
		// Interrupted or past the deadline: whatever was measured is not a
		// result, even where the workload wound down without complaint.
		return nil, fmt.Errorf("%s: %w", opt.Workload, err)
	}

	// Output checks shared by every workload.
	delta := telemetry.Since(before)
	if n := delta["smartcrowd_chain_reorgs_total"]; n != 0 {
		out.violate("chain.reorgs = %v, want 0 (single sealer)", n)
	}
	if n := delta["smartcrowd_wire_queue_shed_total"]; n != 0 {
		out.violate("wire.queue_shed = %v, want 0", n)
	}
	if text := strings.TrimSpace(logs.String()); text != "" {
		lines := strings.Split(text, "\n")
		out.violate("%d warn/error log lines, first: %s", len(lines), lines[0])
	}
	if out.attempted < 1 {
		out.violate("no operation attempted")
	}

	res = &Result{
		Workload:   opt.Workload,
		Attempted:  out.attempted,
		Failed:     out.failed,
		Violations: out.violations,
		TempRoot:   root,
		Listeners:  out.listeners,
	}
	if len(out.violations) > 0 && res.Failed == 0 {
		res.Failed = 1 // a failed output check is a failed run even if every operation returned
	}
	res.Correct = res.Failed == 0

	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	res.EndToEnd = map[string]float64{
		"setup_s":         out.setupDone.Sub(opt.Started).Seconds(),
		"peak_rss_mb":     peakRSSMB(),
		"alloc_kb_per_op": ratio(float64(mem.TotalAlloc-e.alloc0)/1024, float64(out.attempted)),
		"work_per_s":      median(out.rates),
		"latency_p50_ms":  median(out.latenciesMs),
		"cpu_ms_per_op":   ratio(ms(cpuTime()-e.cpu0), float64(out.attempted)),
	}
	var spans []span
	if opt.Trace {
		spans = e.rec.snapshot()
		res.PerLayer = layerMetrics(out, spans)
		path := filepath.Join(opt.WorkDir, opt.Workload+".trace.json")
		if err := writeTrace(path, opt.Workload, opt.Seed, spans); err != nil {
			return nil, err
		}
		fmt.Fprintf(opt.Out, "trace: %d spans written to %s\n", len(spans), path)
	}
	for _, metrics := range []map[string]float64{res.EndToEnd, res.PerLayer} {
		for name, v := range metrics {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				res.Violations = append(res.Violations, fmt.Sprintf("metric %s is not finite (%v)", name, v))
				metrics[name] = 0
				res.Correct = false
				res.Failed = max(res.Failed, 1)
			}
		}
	}
	report(opt.Out, opt, out, res, spans)
	return res, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// report prints the human-readable summary.
func report(w io.Writer, opt Options, out *outcome, res *Result, spans []span) {
	e2e := res.EndToEnd
	mode := "untraced"
	if opt.Trace {
		mode = "traced (end-to-end numbers below are indicative only; gate on an untraced run)"
	}
	fmt.Fprintf(w, "scbench %s seed=%d seconds=%d %s\n", opt.Workload, opt.Seed, opt.Seconds, mode)
	fmt.Fprintf(w, "  in-process cluster on loopback, no injected delay: latencies are processor + fsync time only\n")
	fmt.Fprintf(w, "  closed loop, %s; single sealer, difficulty %d, PoW predicate on, fsyncs on\n", out.opUnit, difficulty)
	label, tail := tailPercentile(out.latenciesMs)
	fmt.Fprintf(w, "  %-18s %12.4f s\n", "setup_s", e2e["setup_s"])
	fmt.Fprintf(w, "  %-18s %12.4f MB\n", "peak_rss_mb", e2e["peak_rss_mb"])
	fmt.Fprintf(w, "  %-18s %12.4f KB\n", "alloc_kb_per_op", e2e["alloc_kb_per_op"])
	fmt.Fprintf(w, "  informational (not gated: this box cannot repeat them within any allowed bound):\n")
	fmt.Fprintf(w, "  %-18s %12.4f 1/s   per round: %s\n", "work_per_s", e2e["work_per_s"], fmtFloats(out.rates))
	fmt.Fprintf(w, "  %-18s %12.4f ms    %s %.4f ms over %d samples\n", "latency_p50_ms", e2e["latency_p50_ms"], label, tail, len(out.latenciesMs))
	fmt.Fprintf(w, "  %-18s %12.4f ms\n", "cpu_ms_per_op", e2e["cpu_ms_per_op"])
	fmt.Fprintf(w, "  %-18s %12d of %d\n", "failed", res.Failed, res.Attempted)
	if opt.Trace {
		fmt.Fprintf(w, "  per-layer (traced rounds only):\n")
		for _, m := range perLayer {
			fmt.Fprintf(w, "    %-34s %14.4f %s\n", m.Name, res.PerLayer[m.Name], m.Unit)
		}
		reportBudget(w, spans)
	} else {
		for _, m := range perLayer {
			if v, ok := out.extra[m.Name]; ok {
				fmt.Fprintf(w, "  %-28s %12.4f %s\n", m.Name, v, m.Unit)
			}
		}
	}
	for _, v := range res.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'f', 2, 64)
	}
	return strings.Join(parts, " ")
}

// reportBudget prints how the median operation's latency splits over the
// blocking path, and what no span covers.
func reportBudget(w io.Writer, spans []span) {
	attrs := attributeOps(spans)
	if len(attrs) == 0 {
		return
	}
	totals := make([]float64, len(attrs))
	for i, a := range attrs {
		totals[i] = float64(a.total) / 1e6
	}
	fmt.Fprintf(w, "  blocking-path budget over %d operations (median latency %.4f ms; median share of each operation):\n",
		len(attrs), median(totals))
	share := func(pick func(attribution) int64) float64 {
		shares := make([]float64, 0, len(attrs))
		for _, a := range attrs {
			if a.total > 0 {
				shares = append(shares, float64(pick(a))/float64(a.total))
			}
		}
		return median(shares)
	}
	for _, layer := range blockingPath {
		if s := share(func(a attribution) int64 { return a.byName[layer.name] }); s > 0 {
			fmt.Fprintf(w, "    %-34s %13.1f%%\n", layer.name, 100*s)
		}
	}
	fmt.Fprintf(w, "    %-34s %13.1f%%\n", "(unattributed)", 100*share(func(a attribution) int64 { return a.unattributed }))
}

// ResultLine renders the one-line JSON object the driver reads: correct,
// attempted, failed, and every end-to-end (or, traced, per-layer) metric
// with its unit. all adds the informational metrics to an untraced line.
func ResultLine(res *Result, all bool) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	specs, values := endToEnd, res.EndToEnd
	switch {
	case res.PerLayer != nil:
		specs, values = perLayer, res.PerLayer
	case all:
		specs = untracedSpecs()
	}
	metrics := make(map[string]metric, len(specs))
	for _, m := range specs {
		metrics[m.Name] = metric{Value: values[m.Name], Unit: m.Unit}
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, metrics})
	if err != nil {
		// Only NaN/Inf can fail here, and Run has already zeroed those.
		panic(err)
	}
	return string(line)
}
