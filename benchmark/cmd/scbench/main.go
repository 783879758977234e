// Command scbench runs one workload of the repository's benchmark and
// prints its metrics; the last line of standard output is the JSON result
// object the driver reads. See benchmark/README.md.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"github.com/smartcrowd/smartcrowd/benchmark"
)

func main() {
	started := time.Now()
	os.Exit(run(started, os.Args[1:]))
}

func run(started time.Time, args []string) int {
	fs := flag.NewFlagSet("scbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "lifecycle, txflood, readstorm or coldsync")
	seed := fs.Int64("seed", 1, "seed for every generated input")
	seconds := fs.Int("seconds", 10, "sizes the measured phase (work is fixed from it)")
	trace := fs.Int("trace", 0, "1 = install decorators, record spans, report per-layer metrics")
	scale := fs.String("scale", "full", "full or tiny (smoke-test size)")
	workdir := fs.String("workdir", "benchmark/out", "directory for the temporary root and trace files")
	all := fs.Bool("all", false, "add the informational (ungated) speed metrics to an untraced result line")
	repeat := fs.Int("repeat", 0, "run two interleaved sets of N full runs of every workload and report how well they agree")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *scale != "full" && *scale != "tiny" {
		fmt.Fprintf(os.Stderr, "scbench: unknown scale %q\n", *scale)
		return 2
	}

	// SIGINT/SIGTERM cancel the run; Run unwinds through its deferred
	// closes, so nothing is left listening and the temp root is removed.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *repeat > 0 {
		if err := benchmark.Repeat(ctx, os.Stdout, *repeat, *seconds, *workdir); err != nil {
			fmt.Fprintf(os.Stderr, "scbench: %v\n", err)
			return 1
		}
		return 0
	}

	res, err := benchmark.Run(ctx, benchmark.Options{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  *seconds,
		Trace:    *trace != 0,
		Tiny:     *scale == "tiny",
		WorkDir:  *workdir,
		Started:  started,
		Out:      os.Stdout,
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "scbench: %v\n", err)
		return 1
	}
	fmt.Println(benchmark.ResultLine(res, *all))
	if !res.Correct {
		return 1
	}
	return 0
}
