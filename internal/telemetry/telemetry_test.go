package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("smartcrowd_test_events_total", L("kind", "a"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter value %d, want 5", got)
	}
	// Same name+labels resolves to the same handle.
	if r.Counter("smartcrowd_test_events_total", L("kind", "a")) != c {
		t.Error("handle not memoized")
	}
	// Different labels are a distinct series.
	if r.Counter("smartcrowd_test_events_total", L("kind", "b")) == c {
		t.Error("label series not distinct")
	}

	g := r.Gauge("smartcrowd_test_depth")
	g.Set(7)
	if got := g.Value(); got != 7 {
		t.Errorf("gauge value %d, want 7", got)
	}
}

func TestKindMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("smartcrowd_test_x_total")
	defer func() {
		if recover() == nil {
			t.Error("gauge on a counter name did not panic")
		}
	}()
	r.Gauge("smartcrowd_test_x_total")
}

func TestInvalidNamePanics(t *testing.T) {
	r := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Error("invalid metric name did not panic")
		}
	}()
	r.Counter("9bad name")
}

func TestLabelCanonicalization(t *testing.T) {
	if got := canonicalLabels([]Label{L("z", "1"), L("a", "2")}); got != `a="2",z="1"` {
		t.Errorf("labels not sorted: %s", got)
	}
	if got := canonicalLabels([]Label{L("k", `a"b\c`)}); got != `k="a\"b\\c"` {
		t.Errorf("labels not escaped: %s", got)
	}
}

func TestSnapshotDelta(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("smartcrowd_test_total")
	g := r.Gauge("smartcrowd_test_level")
	h := r.Histogram("smartcrowd_test_sizes")
	c.Add(10)
	g.Set(3)
	h.Observe(8)

	before := r.Snapshot()
	c.Add(5)
	g.Set(9)
	h.Observe(8)
	delta := r.Snapshot().Delta(before)

	if delta["smartcrowd_test_total"] != 5 {
		t.Errorf("counter delta %v, want 5", delta["smartcrowd_test_total"])
	}
	if delta["smartcrowd_test_level"] != 9 {
		t.Errorf("gauge delta reports %v, want current value 9", delta["smartcrowd_test_level"])
	}
	if delta["smartcrowd_test_sizes_count"] != 1 {
		t.Errorf("histogram count delta %v, want 1", delta["smartcrowd_test_sizes_count"])
	}
}

func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("smartcrowd_test_events_total", L("kind", "a")).Add(3)
	r.Counter("smartcrowd_test_events_total", L("kind", "b")).Add(1)
	r.SetHelp("smartcrowd_test_events_total", "test events")
	r.Gauge("smartcrowd_test_depth").Set(-4)
	h := r.Histogram("smartcrowd_test_latency_ns")
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}

	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP smartcrowd_test_events_total test events",
		"# TYPE smartcrowd_test_events_total counter",
		`smartcrowd_test_events_total{kind="a"} 3`,
		`smartcrowd_test_events_total{kind="b"} 1`,
		"# TYPE smartcrowd_test_depth gauge",
		"smartcrowd_test_depth -4",
		"# TYPE smartcrowd_test_latency_ns summary",
		`smartcrowd_test_latency_ns{quantile="0.5"} 1023`,
		"smartcrowd_test_latency_ns_sum 100000",
		"smartcrowd_test_latency_ns_count 100",
		"# TYPE smartcrowd_test_latency_ns_max gauge",
		"smartcrowd_test_latency_ns_max 1000",
	} {
		if !strings.Contains(out, want+"\n") {
			t.Errorf("exposition missing line %q\n---\n%s", want, out)
		}
	}
	// Every non-comment line is `name value` or `name{labels} value`.
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

// TestConcurrentUse exercises every mutation path under the race detector.
func TestConcurrentUse(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			c := r.Counter("smartcrowd_test_conc_total", L("w", string(rune('a'+n))))
			h := r.Histogram("smartcrowd_test_conc_ns")
			g := r.Gauge("smartcrowd_test_conc_depth")
			for j := 0; j < 1000; j++ {
				c.Inc()
				h.Observe(uint64(j))
				g.Set(int64(j))
				if j%100 == 0 {
					sp := r.StartTrace("conc")
					_ = r.Snapshot()
					sp.End()
				}
			}
		}(i)
	}
	wg.Wait()
	snap := r.Snapshot()
	if snap.Values["smartcrowd_test_conc_ns_count"] != 8000 {
		t.Errorf("histogram count %v, want 8000", snap.Values["smartcrowd_test_conc_ns_count"])
	}
	if snap.Values["smartcrowd_test_conc_depth"] != 999 {
		t.Errorf("gauge %v, want every writer's last Set, 999", snap.Values["smartcrowd_test_conc_depth"])
	}
}
