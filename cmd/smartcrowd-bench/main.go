// Command smartcrowd-bench regenerates the tables and figures of the
// SmartCrowd paper's evaluation (§VII).
//
// Usage:
//
//	smartcrowd-bench              # run everything at quick scale
//	smartcrowd-bench -full        # paper-sized runs (2000 blocks, 100 trials)
//	smartcrowd-bench -run fig5a   # one experiment (comma-separate for more)
//	smartcrowd-bench -list        # list experiment ids
//
// Every run prints the regenerated rows plus PASS/FAIL notes for the
// paper's qualitative claims; the exit status is non-zero if any shape
// check fails.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/bench"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		full    = flag.Bool("full", false, "paper-sized runs (slower)")
		only    = flag.String("run", "", "comma-separated experiment ids (default: all)")
		list    = flag.Bool("list", false, "list experiment ids and exit")
		csvDir  = flag.String("csv", "", "also write each report as CSV into this directory")
		jsonDir = flag.String("json", "", "also write each report (rows, notes, telemetry) as JSON into this directory")
		showTel = flag.Bool("telemetry", false, "print per-experiment telemetry deltas (chain/txpool/pow counters moved by the run; the registry is process-wide, so chain and txpool deltas sum over the run's provider nodes)")
	)
	flag.Parse()

	if *list {
		for _, exp := range bench.All() {
			fmt.Printf("%-14s %s\n", exp.ID, exp.Title)
		}
		return 0
	}

	scale := bench.Quick
	if *full {
		scale = bench.Full
	}

	selected := bench.All()
	if *only != "" {
		selected = selected[:0]
		for _, id := range strings.Split(*only, ",") {
			exp, ok := bench.ByID(strings.TrimSpace(id))
			if !ok {
				fmt.Fprintf(os.Stderr, "smartcrowd-bench: unknown experiment %q (try -list)\n", id)
				return 2
			}
			selected = append(selected, exp)
		}
	}

	failures := 0
	for _, exp := range selected {
		start := time.Now()
		before := telemetry.TakeSnapshot()
		report, err := exp.Run(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "smartcrowd-bench: %s: %v\n", exp.ID, err)
			failures++
			continue
		}
		// Attach what the run moved in the process-wide registry: counter
		// and histogram-count deltas attribute chain/txpool/pow work to
		// this experiment even though the registry is shared. Every
		// provider node the simulation runs counts into it, so a chain or
		// txpool delta is the sum over the run's nodes.
		report.Telemetry = telemetry.Since(before)
		fmt.Println(report)
		if *showTel {
			printTelemetry(report.Telemetry)
		}
		fmt.Printf("(%s in %s)\n\n", exp.ID, time.Since(start).Round(time.Millisecond))
		if *csvDir != "" {
			path := filepath.Join(*csvDir, exp.ID+".csv")
			if err := os.WriteFile(path, []byte(report.CSV()), 0o644); err != nil {
				fmt.Fprintf(os.Stderr, "smartcrowd-bench: write %s: %v\n", path, err)
				failures++
			}
		}
		if *jsonDir != "" {
			data, err := report.JSON()
			if err == nil {
				err = os.WriteFile(filepath.Join(*jsonDir, exp.ID+".json"), data, 0o644)
			}
			if err != nil {
				fmt.Fprintf(os.Stderr, "smartcrowd-bench: json %s: %v\n", exp.ID, err)
				failures++
			}
		}
		if !report.ShapeOK {
			failures++
		}
	}
	if failures > 0 {
		fmt.Fprintf(os.Stderr, "smartcrowd-bench: %d experiment(s) failed shape checks\n", failures)
		return 1
	}
	return 0
}

// printTelemetry renders the counter deltas an experiment moved, skipping
// quantile/max series (point-in-time, not attributable to one run).
func printTelemetry(deltas map[string]float64) {
	keys := make([]string, 0, len(deltas))
	for k := range deltas {
		if strings.Contains(k, "_p50") || strings.Contains(k, "_p90") ||
			strings.Contains(k, "_p99") || strings.Contains(k, "_max") {
			continue
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Println("telemetry deltas:")
	for _, k := range keys {
		fmt.Printf("  %-60s %14.0f\n", k, deltas[k])
	}
}
