// Command scpair compares the working tree with a parent commit on the
// repository's benchmark (BENCHMARK.json's command, scbench) in alternated
// pairs, the way a performance claim has to be shown on a small, noisy
// machine (benchmark/NOISE.md).
//
// Usage:
//
//	scpair -ref <git-ref> [-n 10] [-workloads lifecycle,coldsync]
//	       [-dir <scratch>] [-record BENCH_scbench.json]
//	scpair -check BENCH_scbench.json
//
// It exports the ref with `git archive` into a scratch directory (so the
// repository's metadata is left alone), runs each tree's own
// benchmark/run.sh — which builds that tree's scbench before the run's
// clock starts — and for every workload runs pair i on seed i+1 for
// BENCHMARK.json's run_seconds — the parent first in even pairs, the
// change first in odd ones — with the informational speed metrics on. For each metric it prints both sides'
// medians and quartiles, how many pairs moved each way, and a verdict:
// "lower" or "higher" when the change moved the metric that way in at
// least nine pairs in ten and its median moved by more than the parent's
// quartile distance, "unresolved" otherwise. A gated metric (BENCHMARK.json
// end_to_end) whose median got worse by more than its bound is flagged.
// -record appends the comparison to a JSON trajectory file. -check runs
// nothing: it exits non-zero when the file's last record has a workload
// whose alloc_kb_per_op or peak_rss_mb verdict is "higher (worse)".
//
// Run it from the root of a checkout; it needs no network.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

func main() {
	os.Exit(run())
}

// metricSpec is what BENCHMARK.json says about one metric.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// benchSpec is the part of BENCHMARK.json scpair reads.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// result is the last line scbench prints.
type result struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	} `json:"metrics"`
}

// comparison is one metric of one workload over all pairs.
type comparison struct {
	Parent    float64 `json:"parent"`
	Change    float64 `json:"change"`
	ParentIQR float64 `json:"parent_iqr"`
	Lower     int     `json:"pairs_lower"`
	Higher    int     `json:"pairs_higher"`
	Verdict   string  `json:"verdict"`
}

// record is one entry of the trajectory file.
type record struct {
	Commit  string                           `json:"commit"`
	Parent  string                           `json:"parent"`
	Cores   int                              `json:"cores"`
	Go      string                           `json:"go"`
	Pairs   int                              `json:"pairs"`
	Seconds int                              `json:"seconds"`
	Medians map[string]map[string]float64    `json:"medians"`
	Paired  map[string]map[string]comparison `json:"paired"`
}

func run() int {
	var (
		ref       = flag.String("ref", "", "git ref of the parent (required)")
		pairs     = flag.Int("n", 10, "alternated pairs per workload")
		workloads = flag.String("workloads", "", "comma-separated workloads (default: every workload in BENCHMARK.json)")
		dir       = flag.String("dir", "", "scratch directory, kept between invocations so the parent's build cache survives (default: a temporary directory, removed)")
		recordTo  = flag.String("record", "", "append the comparison to this JSON trajectory file")
		check     = flag.String("check", "", "run nothing; fail if this trajectory file's last record regressed alloc_kb_per_op or peak_rss_mb")
	)
	flag.Parse()
	if *check != "" {
		if err := checkLast(*check); err != nil {
			fmt.Fprintln(os.Stderr, "scpair:", err)
			return 1
		}
		return 0
	}
	if *ref == "" || *pairs < 1 {
		fmt.Fprintln(os.Stderr, "scpair: -ref is required and -n must be positive")
		return 2
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := compare(ctx, *ref, *pairs, *workloads, *dir, *recordTo); err != nil {
		fmt.Fprintln(os.Stderr, "scpair:", err)
		return 1
	}
	return 0
}

func compare(ctx context.Context, ref string, pairs int, only, dir, recordTo string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the root of a checkout: %w", err)
	}
	var spec benchSpec
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if only != "" {
		names = strings.Split(only, ",")
	}

	commit, err := gitOutput("rev-parse", "--verify", ref+"^{commit}")
	if err != nil {
		return err
	}
	if dir == "" {
		if dir, err = os.MkdirTemp("", "scpair-"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
	}
	parentTree, err := exportTree(commit, filepath.Join(dir, "parent"))
	if err != nil {
		return err
	}
	changeTree, err := os.Getwd()
	if err != nil {
		return err
	}
	rec := record{Parent: commit[:7], Cores: runtime.NumCPU(), Pairs: pairs, Seconds: spec.RunSeconds,
		Medians: map[string]map[string]float64{}, Paired: map[string]map[string]comparison{}}
	rec.Commit, _ = gitOutput("describe", "--always", "--dirty", "--abbrev=7")
	rec.Go, _ = goVersion()
	for _, w := range names {
		parent, change, err := runPairs(ctx, w, pairs, spec.RunSeconds, parentTree, changeTree)
		if err != nil {
			return err
		}
		rec.Medians[w], rec.Paired[w] = report(os.Stdout, w, spec, parent, change)
	}
	if recordTo != "" {
		return appendRecord(recordTo, rec)
	}
	return nil
}

// exportTree writes the commit's tree into dst, reusing an export of the
// same commit (and the build cache inside it) when dst already holds one.
func exportTree(commit, dst string) (string, error) {
	stamp := filepath.Join(dst, ".scpair-commit")
	if got, err := os.ReadFile(stamp); err == nil && string(got) == commit {
		return dst, nil
	}
	if err := os.RemoveAll(dst); err != nil {
		return "", err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return "", err
	}
	tarball := dst + ".tar"
	defer os.Remove(tarball)
	for _, args := range [][]string{{"git", "archive", "-o", tarball, commit}, {"tar", "-xf", tarball, "-C", dst}} {
		if out, err := exec.Command(args[0], args[1:]...).CombinedOutput(); err != nil {
			return "", fmt.Errorf("%s: %w: %s", strings.Join(args, " "), err, out)
		}
	}
	return dst, os.WriteFile(stamp, []byte(commit), 0o644)
}

// scbench runs the tree's benchmark/run.sh with args and returns its
// standard output. An interrupt reaches scbench as SIGINT, so it removes
// its temporary root before exiting.
func scbench(ctx context.Context, tree string, args ...string) ([]byte, error) {
	cmd := exec.CommandContext(ctx, "bash", append([]string{"benchmark/run.sh"}, args...)...)
	cmd.Dir = tree
	cmd.Stderr = os.Stderr
	cmd.Cancel = func() error { return cmd.Process.Signal(os.Interrupt) }
	cmd.WaitDelay = 30 * time.Second
	return cmd.Output()
}

// runPairs runs one workload n times on each tree, alternating which side
// goes first, and returns the parsed results in pair order.
func runPairs(ctx context.Context, workload string, n, seconds int, parentTree, changeTree string) (parent, change []result, err error) {
	for i := 0; i < n; i++ {
		args := []string{"-workload", workload, "-seed", fmt.Sprint(i + 1), "-seconds", fmt.Sprint(seconds), "-trace", "0", "-all"}
		order := []string{parentTree, changeTree}
		if i%2 == 1 {
			order = []string{changeTree, parentTree}
		}
		for _, tree := range order {
			out, runErr := scbench(ctx, tree, args...)
			if ctx.Err() != nil {
				return nil, nil, ctx.Err()
			}
			res, parseErr := lastResult(out)
			if parseErr != nil {
				return nil, nil, fmt.Errorf("%s seed %d in %s: %w (run: %v)", workload, i+1, tree, parseErr, runErr)
			}
			if tree == parentTree {
				parent = append(parent, res)
			} else {
				change = append(change, res)
			}
		}
		fmt.Fprintf(os.Stderr, "scpair: %s pair %d/%d done\n", workload, i+1, n)
	}
	return parent, change, nil
}

// lastResult parses the last non-empty line of scbench's output.
func lastResult(out []byte) (result, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res result
	if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil || res.Metrics == nil {
		return res, errors.New("no result line")
	}
	return res, nil
}

// lookup finds a metric's spec: a gated one by name, a per-layer one by
// the name after its layer prefix ("bench.work_per_s" is work_per_s).
func (s benchSpec) lookup(name string) (m metricSpec, gated bool) {
	for _, m := range s.EndToEnd {
		if m.Name == name {
			return m, true
		}
	}
	for _, m := range s.PerLayer {
		if _, short, _ := strings.Cut(m.Name, "."); short == name {
			return m, false
		}
	}
	return metricSpec{Name: name, Better: "lower"}, false
}

// report prints one workload's table and returns the change's medians of
// the gated metrics and every metric's comparison.
func report(w *os.File, workload string, spec benchSpec, parent, change []result) (map[string]float64, map[string]comparison) {
	failed := func(rs []result) (n int) {
		for _, r := range rs {
			if !r.Correct || r.Failed > 0 {
				n++
			}
		}
		return n
	}
	fmt.Fprintf(w, "\n%s: %d pairs, seeds 1–%d; runs with a failed check or operation: parent %d, change %d\n",
		workload, len(parent), len(parent), failed(parent), failed(change))
	fmt.Fprintf(w, "%-22s %-5s %-28s %-28s %8s %6s  %s\n", "metric", "unit", "parent median [q1, q3]", "change median [q1, q3]", "change", "lo/hi", "verdict")

	var names []string
	for name := range parent[0].Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	medians, paired := map[string]float64{}, map[string]comparison{}
	for _, name := range names {
		p, c := values(parent, name), values(change, name)
		if len(p) != len(c) {
			continue // a metric only one side reports
		}
		m, gated := spec.lookup(name)
		cmp := compareRuns(p, c, m.Better)
		paired[name] = cmp.rounded()
		flag := ""
		if gated {
			medians[name] = round4(cmp.Change)
			worse := (cmp.Change - cmp.Parent) / cmp.Parent
			if m.Better == "higher" {
				worse = -worse
			}
			if worse > m.Bound {
				flag = fmt.Sprintf(" — worse than the %.0f %% bound", 100*m.Bound)
			}
		}
		pq1, pq3 := quartiles(p)
		cq1, cq3 := quartiles(c)
		fmt.Fprintf(w, "%-22s %-5s %-28s %-28s %+7.1f%% %3d/%-2d  %s%s\n", name, parent[0].Metrics[name].Unit,
			fmt.Sprintf("%.4g [%.4g, %.4g]", cmp.Parent, pq1, pq3), fmt.Sprintf("%.4g [%.4g, %.4g]", cmp.Change, cq1, cq3),
			100*(cmp.Change-cmp.Parent)/cmp.Parent, cmp.Lower, cmp.Higher, cmp.Verdict, flag)
	}
	return medians, paired
}

// values returns the metric from every result that has it.
func values(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		if m, ok := r.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareRuns pairs parent[i] with change[i] and applies the verdict rule.
func compareRuns(parent, change []float64, better string) comparison {
	c := comparison{Parent: median(parent), Change: median(change)}
	q1, q3 := quartiles(parent)
	c.ParentIQR = q3 - q1
	for i := range parent {
		switch {
		case change[i] < parent[i]:
			c.Lower++
		case change[i] > parent[i]:
			c.Higher++
		}
	}
	moved := math.Abs(c.Change-c.Parent) > c.ParentIQR
	c.Verdict = "unresolved"
	switch {
	case moved && c.Change < c.Parent && 10*c.Lower >= 9*len(parent):
		c.Verdict = "lower"
	case moved && c.Change > c.Parent && 10*c.Higher >= 9*len(parent):
		c.Verdict = "higher"
	}
	if c.Verdict != "unresolved" {
		if (c.Verdict == "lower") == (better == "lower") {
			c.Verdict += " (better)"
		} else {
			c.Verdict += " (worse)"
		}
	}
	return c
}

// rounded keeps the four significant digits a trajectory record needs.
func (c comparison) rounded() comparison {
	c.Parent, c.Change, c.ParentIQR = round4(c.Parent), round4(c.Change), round4(c.ParentIQR)
	return c
}

func round4(x float64) float64 {
	v, _ := strconv.ParseFloat(strconv.FormatFloat(x, 'g', 4, 64), 64)
	return v
}

func median(xs []float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartiles by the method of
// Python's statistics.quantiles(xs, n=4) — the "exclusive" default
// benchmark/NOISE.md's spreads use — and the single value for one sample.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := i * (n + 1) / 4
		j = max(1, min(j, n-1))
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// appendRecord adds rec to the JSON array in path, creating it if absent.
func appendRecord(path string, rec record) error {
	var records []json.RawMessage
	if raw, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(raw, &records); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	enc, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	records = append(records, enc)
	out, err := json.MarshalIndent(records, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// checkLast fails when the last record in the trajectory file at path
// has a regression (see regressions).
func checkLast(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var records []record
	if err := json.Unmarshal(raw, &records); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	if len(records) == 0 {
		return fmt.Errorf("%s: no records", path)
	}
	last := records[len(records)-1]
	if bad := regressions(last); len(bad) > 0 {
		return fmt.Errorf("%s: %s regressed: %s", path, last.Commit, strings.Join(bad, "; "))
	}
	return nil
}

// regressions lists the workloads and gated metrics — allocation and peak
// memory, the two the benchmark resolves — whose paired verdict in rec is
// "higher (worse)", in workload order.
func regressions(rec record) []string {
	var workloads, bad []string
	for w := range rec.Paired {
		workloads = append(workloads, w)
	}
	slices.Sort(workloads)
	for _, w := range workloads {
		for _, name := range []string{"alloc_kb_per_op", "peak_rss_mb"} {
			if c := rec.Paired[w][name]; c.Verdict == "higher (worse)" {
				bad = append(bad, fmt.Sprintf("%s %s %.4g → %.4g", w, name, c.Parent, c.Change))
			}
		}
	}
	return bad
}

func gitOutput(args ...string) (string, error) {
	out, err := exec.Command("git", args...).Output()
	if err != nil {
		return "", fmt.Errorf("git %s: %w", strings.Join(args, " "), err)
	}
	return strings.TrimSpace(string(out)), nil
}

func goVersion() (string, error) {
	out, err := exec.Command("go", "env", "GOVERSION").Output()
	return strings.TrimSpace(string(out)), err
}
