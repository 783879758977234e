package benchmark

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// tinyRun runs one workload at smoke-test size.
func tinyRun(t *testing.T, workload string, trace bool) *Result {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	res, err := Run(ctx, Options{
		Workload: workload, Seed: 7, Seconds: 1, Tiny: true, Trace: trace,
		WorkDir: t.TempDir(), Started: time.Now(), Out: io.Discard,
	})
	if err != nil {
		t.Fatalf("%s: %v", workload, err)
	}
	return res
}

// TestWorkloadsTiny runs all four workloads traced at tiny scale — a
// traced run computes the end-to-end metrics too — and checks that every
// metric the catalogue names is present and finite, that every output
// check passed, and that the result line carries exactly the contract's
// keys with each metric's unit.
func TestWorkloadsTiny(t *testing.T) {
	for _, wl := range workloads {
		t.Run(wl.Name, func(t *testing.T) {
			res := tinyRun(t, wl.Name, true)
			for _, v := range res.Violations {
				t.Errorf("violation: %s", v)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
			}
			for _, group := range []struct {
				specs  []metricSpec
				values map[string]float64
			}{{untracedSpecs(), res.EndToEnd}, {perLayer, res.PerLayer}} {
				if len(group.values) != len(group.specs) {
					t.Errorf("%d values for %d catalogued metrics", len(group.values), len(group.specs))
				}
				for _, spec := range group.specs {
					v, ok := group.values[spec.Name]
					if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
						t.Errorf("metric %s: present=%v value=%v", spec.Name, ok, v)
					}
				}
			}
			for _, spec := range untracedSpecs() {
				if res.EndToEnd[spec.Name] <= 0 {
					t.Errorf("end-to-end metric %s = %v, must never be 0", spec.Name, res.EndToEnd[spec.Name])
				}
			}
			if res.PerLayer["chain.reorgs"] != 0 || res.PerLayer["wire.queue_shed"] != 0 || res.PerLayer["bench.failed_share"] != 0 {
				t.Errorf("reorgs/queue_shed/failed_share must be 0: %v %v %v",
					res.PerLayer["chain.reorgs"], res.PerLayer["wire.queue_shed"], res.PerLayer["bench.failed_share"])
			}

			if wl.Name == "lifecycle" {
				// Exact counts the loop must reproduce at any scale.
				lifecycles := float64((measuredRounds + 1) * sizeFor(true, 1).lcPerRound)
				if res.Attempted != int(lifecycles) {
					t.Errorf("attempted %d lifecycles, want %v", res.Attempted, lifecycles)
				}
				if got := res.PerLayer["contract.findings_accepted"]; got != findingsPerSRA*lifecycles {
					t.Errorf("findings accepted = %v, want %v", got, findingsPerSRA*lifecycles)
				}
				if got := res.PerLayer["contract.findings_rejected"]; got != 0 {
					t.Errorf("findings rejected = %v, want 0", got)
				}
				if got := res.PerLayer["pow.seal_attempts_per_block"]; got != 1 {
					t.Errorf("seal attempts per block = %v, want 1 at difficulty 1", got)
				}
			}

			checkLine := func(res *Result, all bool, specs []metricSpec) {
				var line struct {
					Correct   *bool `json:"correct"`
					Attempted *int  `json:"attempted"`
					Failed    *int  `json:"failed"`
					Metrics   map[string]struct {
						Value *float64 `json:"value"`
						Unit  string   `json:"unit"`
					} `json:"metrics"`
				}
				dec := json.NewDecoder(strings.NewReader(ResultLine(res, all)))
				dec.DisallowUnknownFields()
				if err := dec.Decode(&line); err != nil {
					t.Fatalf("result line: %v", err)
				}
				if line.Correct == nil || line.Attempted == nil || line.Failed == nil || len(line.Metrics) != len(specs) {
					t.Fatalf("result line lacks keys or metrics: %s", ResultLine(res, all))
				}
				for _, spec := range specs {
					m, ok := line.Metrics[spec.Name]
					if !ok || m.Value == nil || m.Unit != spec.Unit {
						t.Errorf("result line metric %s: %+v", spec.Name, m)
					}
				}
			}
			checkLine(res, false, perLayer)
			res.PerLayer = nil // what an untraced run prints
			checkLine(res, false, endToEnd)
			checkLine(res, true, untracedSpecs())
		})
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the catalogue in step.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var doc struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct {
			Name string `json:"name"`
			Why  string `json:"why"`
		} `json:"workloads"`
		EndToEnd []metric `json:"end_to_end"`
		PerLayer []metric `json:"per_layer"`
	}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Paths) != 1 || doc.Paths[0] != "benchmark" {
		t.Errorf("paths = %v, want [benchmark]", doc.Paths)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds = %d", doc.RunSeconds)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("%d workloads, want %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.Name || doc.Workloads[i].Why != w.Why {
			t.Errorf("workload %d = %+v, want %+v", i, doc.Workloads[i], w)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters", w.Name, len(w.Why))
		}
	}
	compare := func(kind string, got []metric, want []metricSpec, bounded bool) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics, want %d", kind, len(got), len(want))
		}
		for i, spec := range want {
			g := got[i]
			if g.Name != spec.Name || g.Unit != spec.Unit || g.Better != spec.Better {
				t.Errorf("%s %d = %+v, want %+v", kind, i, g, spec)
			}
			if spec.Better != "lower" && spec.Better != "higher" {
				t.Errorf("%s %s: direction %q", kind, spec.Name, spec.Better)
			}
			switch {
			case bounded && (g.Bound == nil || *g.Bound != spec.Bound || spec.Bound <= 0 || spec.Bound > 0.25):
				t.Errorf("%s %s: bound %v, want %v", kind, spec.Name, g.Bound, spec.Bound)
			case !bounded && g.Bound != nil:
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, spec.Name)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd, true)
	compare("per_layer", doc.PerLayer, perLayer, false)
}
