package benchmark

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// Repeat proves (or disproves) that the benchmark repeats: it runs two
// interleaved sets of n full untraced runs of this very binary, every run
// with another seed, and prints per workload and end-to-end metric each
// set's median and quartiles, the spread (interquartile distance ÷
// median) and how much worse the second set's median is than the first's,
// next to the metric's bound. It returns an error if any gated metric's
// gap, or its spread (setup_s's excepted), exceeds its bound; the
// informational speed metrics are summarised the same way without a
// verdict. The runs are child processes, one at a time, each waited for.
func Repeat(ctx context.Context, w io.Writer, n, seconds int, workdir string) error {
	if n < 5 {
		return fmt.Errorf("repeat needs at least 5 runs per set, got %d", n)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	// values[workload][metric][set] = one value per run
	values := make(map[string]map[string][2][]float64)
	started := time.Now()
	for i := 0; i < n; i++ {
		for set := 0; set < 2; set++ {
			for _, wl := range workloads {
				seed := int64(1 + 2*i + set)
				m, err := runChild(ctx, exe, wl.Name, seed, seconds, workdir)
				if err != nil {
					return fmt.Errorf("%s seed %d: %w", wl.Name, seed, err)
				}
				if values[wl.Name] == nil {
					values[wl.Name] = make(map[string][2][]float64)
				}
				for name, v := range m {
					pair := values[wl.Name][name]
					pair[set] = append(pair[set], v)
					values[wl.Name][name] = pair
				}
			}
		}
	}

	fmt.Fprintf(w, "# scbench repeatability\n\n")
	fmt.Fprintf(w, "Two interleaved sets of %d runs per workload (`-seconds %d`, seeds 1..%d, odd seeds in set 1, even in set 2), "+
		"%d CPUs, %s, %s wall.\n\n", n, seconds, 2*n, runtime.NumCPU(), runtime.Version(), time.Since(started).Round(time.Second))
	fmt.Fprintf(w, "spread = (q3 − q1) ÷ median over one set, quartiles as Python's `statistics.quantiles(values, n=4)`; "+
		"gap = how much worse set 2's median is than set 1's (negative = better); range = (max − min) ÷ median within a set.\n\n")
	var failures []string
	for _, wl := range workloads {
		fmt.Fprintf(w, "## %s\n\n", wl.Name)
		fmt.Fprintf(w, "| metric | set 1 median [q1, q3] | set 2 median [q1, q3] | spread 1 | spread 2 | range 1 | range 2 | gap | bound | verdict |\n")
		fmt.Fprintf(w, "|---|---|---|---|---|---|---|---|---|---|\n")
		for _, spec := range untracedSpecs() {
			pair := values[wl.Name][spec.Name]
			var q [2][3]float64
			var spread, rng [2]float64
			for set := 0; set < 2; set++ {
				q[set][0], q[set][1], q[set][2] = quartiles(pair[set])
				spread[set] = ratio(q[set][2]-q[set][0], q[set][1])
				s := sorted(pair[set])
				rng[set] = ratio(s[len(s)-1]-s[0], q[set][1])
			}
			gap := ratio(q[1][1]-q[0][1], q[0][1])
			if spec.Better == "higher" {
				gap = -gap
			}
			bound, verdict := "—", "not gated"
			if spec.Bound > 0 {
				bound, verdict = fmt.Sprintf("%.0f%%", 100*spec.Bound), "ok"
				if gap > spec.Bound {
					verdict = "GAP"
				}
				if spec.Name != "setup_s" && max(spread[0], spread[1]) > spec.Bound {
					verdict = "SPREAD"
				}
				if verdict != "ok" {
					failures = append(failures, fmt.Sprintf("%s %s: %s", wl.Name, spec.Name, verdict))
				}
			}
			fmt.Fprintf(w, "| %s (%s) | %.4g [%.4g, %.4g] | %.4g [%.4g, %.4g] | %.1f%% | %.1f%% | %.1f%% | %.1f%% | %+.1f%% | %s | %s |\n",
				spec.Name, spec.Unit, q[0][1], q[0][0], q[0][2], q[1][1], q[1][0], q[1][2],
				100*spread[0], 100*spread[1], 100*rng[0], 100*rng[1], 100*gap, bound, verdict)
		}
		fmt.Fprintln(w)
	}
	if len(failures) > 0 {
		return fmt.Errorf("not repeatable within bounds: %s", strings.Join(failures, "; "))
	}
	return nil
}

// runChild runs one untraced run of this binary and returns its
// end-to-end metric values.
func runChild(ctx context.Context, exe, workload string, seed int64, seconds int, workdir string) (map[string]float64, error) {
	cmd := exec.CommandContext(ctx, exe,
		"-all", "-workload", workload, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-workdir", workdir)
	// On cancellation ask the child to unwind (it removes its temp root)
	// instead of killing it outright.
	cmd.Cancel = func() error { return cmd.Process.Signal(syscall.SIGTERM) }
	cmd.WaitDelay = 30 * time.Second
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%w\n%s", err, stdout.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var res struct {
		Correct bool `json:"correct"`
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		return nil, fmt.Errorf("result line: %w", err)
	}
	if !res.Correct {
		return nil, fmt.Errorf("run reported correct=false")
	}
	out := make(map[string]float64, len(res.Metrics))
	for name, m := range res.Metrics {
		out[name] = m.Value
	}
	return out, nil
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method), so
// the spreads printed here are the ones the driver computes.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n < 2 {
		if n == 1 {
			return s[0], s[0], s[0]
		}
		return 0, 0, 0
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}
