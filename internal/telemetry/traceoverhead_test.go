package telemetry

import (
	"os"
	"strconv"
	"testing"
)

// benchTraceReg is shared by the trace benchmarks; a fresh registry per
// benchmark run would measure map growth instead of steady state.
var benchTraceReg = NewRegistry()

func BenchmarkTracedSpan(b *testing.B) {
	root := benchTraceReg.StartTrace("bench.root")
	tc := root.Context()
	root.End()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchTraceReg.StartSpanIn(tc, "bench.hop").End()
	}
}

// TestTraceOverheadBudget is the tracing half of the CI overhead gate:
// opening and ending a traced span (id stamping + trace-store
// filing) must stay within budget. Spans end at block/batch granularity,
// so the budget is microseconds, not the counters' 30ns — the gate
// exists to catch accidental O(store) work on the span path, not to
// shave nanoseconds. Overridable via SMARTCROWD_TRACE_BUDGET_NS.
func TestTraceOverheadBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("overhead budget is not meaningful under -race")
	}
	if testing.Short() {
		t.Skip("skipping overhead budget in -short mode")
	}
	budget := 5000.0 // 5µs per traced span, ~3 orders below the event rate
	if env := os.Getenv("SMARTCROWD_TRACE_BUDGET_NS"); env != "" {
		v, err := strconv.ParseFloat(env, 64)
		if err != nil {
			t.Fatalf("bad SMARTCROWD_TRACE_BUDGET_NS %q: %v", env, err)
		}
		budget = v
	}
	res := testing.Benchmark(BenchmarkTracedSpan)
	perOp := float64(res.T.Nanoseconds()) / float64(res.N)
	t.Logf("traced span: %.2f ns/op over %d iterations (budget %.0f ns)", perOp, res.N, budget)
	if perOp > budget {
		t.Errorf("traced span %.2f ns/op exceeds %.0f ns budget", perOp, budget)
	}
}

// TestWarmSpanEndAllocatesNothing: once the trace store is full, a
// label-less End allocates nothing, whether it files a new trace into the
// entry and span slice evicted for it or a child into a trace already
// filed: ids and labels are rendered when a trace is read, not when a
// span ends.
func TestWarmSpanEndAllocatesNothing(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	r := NewRegistry()
	trace := func() {
		root := r.StartTrace("warm.root")
		r.StartSpanIn(root.Context(), "warm.hop").End()
		root.End()
	}
	for i := 0; i < maxTraces; i++ {
		trace()
	}
	if n := testing.AllocsPerRun(1000, trace); n != 0 {
		t.Errorf("a two-span trace into a warm store made %v allocations, want 0", n)
	}
}
