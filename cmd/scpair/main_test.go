package main

import (
	"slices"
	"testing"
)

// TestQuartilesMatchPythonExclusive pins the quartile method to Python's
// statistics.quantiles(xs, n=4), whose numbers benchmark/NOISE.md reports.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{4, 3, 2, 1}, 1.25, 3.75},
		{[]float64{7, 1}, -0.5, 8.5}, // two samples extrapolate, as in Python
		{[]float64{5}, 5, 5},
	} {
		if q1, q3 := quartiles(tc.xs); q1 != tc.q1 || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
}

// TestVerdictRule: a move is claimed only when at least nine pairs in ten
// agree and the median moved by more than the parent's quartile distance.
func TestVerdictRule(t *testing.T) {
	parent := []float64{100, 101, 102, 103, 104, 105, 106, 107, 108, 109}
	shift := func(by float64, flip int) []float64 {
		out := make([]float64, len(parent))
		for i, p := range parent {
			out[i] = p + by
			if i < flip {
				out[i] = p - by
			}
		}
		return out
	}
	for _, tc := range []struct {
		name   string
		change []float64
		better string
		want   string
	}{
		{"every pair lower, by more than the spread", shift(-20, 0), "lower", "lower (better)"},
		{"nine pairs lower", shift(-20, 1), "lower", "lower (better)"},
		{"eight pairs lower", shift(-20, 2), "lower", "unresolved"},
		{"every pair lower, inside the spread", shift(-1, 0), "lower", "unresolved"},
		{"every pair higher, higher is better", shift(20, 0), "higher", "higher (better)"},
		{"every pair higher, lower is better", shift(20, 0), "lower", "higher (worse)"},
	} {
		if got := compareRuns(parent, tc.change, tc.better).Verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

// TestRegressions: only a worse verdict on allocation or peak memory fails
// a record; an unresolved one, a better one, or another metric does not.
func TestRegressions(t *testing.T) {
	rec := record{Paired: map[string]map[string]comparison{
		"coldsync": {
			"alloc_kb_per_op": {Parent: 6222, Change: 5717, Verdict: "lower (better)"},
			"peak_rss_mb":     {Parent: 32, Change: 40, Verdict: "higher (worse)"},
		},
		"txflood": {
			"alloc_kb_per_op": {Parent: 27, Change: 30, Verdict: "higher (worse)"},
			"peak_rss_mb":     {Parent: 70, Change: 71, Verdict: "unresolved"},
			"cpu_ms_per_op":   {Parent: 1, Change: 2, Verdict: "higher (worse)"},
		},
		"readstorm": {"setup_s": {Parent: 3, Change: 4, Verdict: "higher (worse)"}},
	}}
	got := regressions(rec)
	want := []string{"coldsync peak_rss_mb 32 → 40", "txflood alloc_kb_per_op 27 → 30"}
	if !slices.Equal(got, want) {
		t.Errorf("regressions = %q, want %q", got, want)
	}
	if got := regressions(record{}); len(got) != 0 {
		t.Errorf("a record without pairs regressed: %q", got)
	}
}
