// Command scvet runs SmartCrowd's project-specific static-analysis
// passes over the module and exits non-zero on findings. It is the
// machine check behind the invariants earlier PRs established by hand:
// consensus determinism (detsource), errors.Is discipline (senterr),
// crypto-free critical sections (locksafe), deadlock-free lock ordering
// (lockorder), terminating goroutines (goleak), stable /metrics names
// (metricname), wire taint tracking (wiretaint), event-discipline
// (logdisc), durable commits (fsyncdisc), and no test-only production
// code (deadexport).
//
// Usage:
//
//	scvet [-allow file] [-list] [-json] [-strict] [-pass a,b] [packages]
//
// Packages default to ./... . Audited exceptions live in .scvet.allow at
// the module root (see internal/analysis.Allowlist for the format);
// stale entries are reported as warnings — or, under -strict, as a
// non-zero exit, which is how CI keeps the allowlist from rotting.
// -json emits machine-readable findings on stdout while the canonical
// `file:line: [pass] message` lines move to stderr, so log-scanning
// problem matchers keep working. -pass restricts the run to a
// comma-separated subset of the catalog (an unknown name is a usage
// error, exit 2); staleness is only judged on full-catalog runs.
//
// Exit codes: 0 clean, 1 findings (or stale entries under -strict),
// 2 usage or load failure.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"

	"github.com/smartcrowd/smartcrowd/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// jsonFinding is the -json wire shape: one object per finding.
type jsonFinding struct {
	File    string `json:"file"`
	Line    int    `json:"line"`
	Pass    string `json:"pass"`
	Message string `json:"message"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("scvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	allowPath := fs.String("allow", "", "allowlist file (default <module root>/.scvet.allow)")
	list := fs.Bool("list", false, "print the pass catalog and exit")
	jsonOut := fs.Bool("json", false, "emit findings as JSON on stdout (text lines move to stderr)")
	strict := fs.Bool("strict", false, "exit non-zero when allowlist entries match nothing")
	passFilter := fs.String("pass", "", "comma-separated subset of passes to run (default: all)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, p := range analysis.Passes() {
			fmt.Fprintf(stdout, "%-12s %s\n", p.Name, p.Doc)
		}
		return 0
	}

	passes := analysis.Passes()
	if *passFilter != "" {
		passes = nil
		for _, name := range strings.Split(*passFilter, ",") {
			name = strings.TrimSpace(name)
			p := analysis.PassByName(name)
			if p == nil {
				fmt.Fprintf(stderr, "scvet: unknown pass %q (see scvet -list)\n", name)
				return 2
			}
			passes = append(passes, p)
		}
	}

	cwd, err := os.Getwd()
	if err != nil {
		return fatal(stderr, err)
	}
	root := moduleRoot(cwd)
	if *allowPath == "" {
		*allowPath = filepath.Join(root, ".scvet.allow")
	}
	allow, err := analysis.LoadAllowlist(*allowPath)
	if err != nil {
		return fatal(stderr, err)
	}

	pkgs, err := analysis.Load(cwd, fs.Args()...)
	if err != nil {
		return fatal(stderr, err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(stderr, "scvet: warning: %s: type error: %v\n", pkg.ImportPath, terr)
		}
	}

	findings, suppressed := allow.Filter(analysis.RunPasses(pkgs, passes))
	textOut := io.Writer(stdout)
	if *jsonOut {
		textOut = stderr
	}
	jf := make([]jsonFinding, 0, len(findings))
	for _, f := range findings {
		f.Pos.Filename = relPath(root, f.Pos.Filename)
		fmt.Fprintln(textOut, f)
		jf = append(jf, jsonFinding{File: f.Pos.Filename, Line: f.Pos.Line, Pass: f.Pass, Message: f.Msg})
	}
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jf); err != nil {
			return fatal(stderr, err)
		}
	}

	// Stale-entry accounting only makes sense when every pass ran: a
	// subset run leaves the other passes' entries legitimately unmatched.
	var stale int
	if *passFilter == "" {
		for _, e := range allow.Unused() {
			stale++
			fmt.Fprintf(stderr, "scvet: warning: %s:%d: allowlist entry matched nothing (stale?): %s %s %q\n",
				*allowPath, e.Line, e.Pass, e.FileSuffix, e.MsgSub)
		}
	}

	switch {
	case len(findings) > 0:
		fmt.Fprintf(stderr, "scvet: %d finding(s), %d suppressed by allowlist\n", len(findings), suppressed)
		return 1
	case *strict && stale > 0:
		fmt.Fprintf(stderr, "scvet: %d stale allowlist entr%s (strict)\n", stale, plural(stale, "y", "ies"))
		return 1
	case suppressed > 0:
		fmt.Fprintf(stderr, "scvet: clean (%d audited exception(s) suppressed)\n", suppressed)
	}
	return 0
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}

// moduleRoot resolves the enclosing module's directory via the go tool,
// falling back to dir when outside a module.
func moduleRoot(dir string) string {
	cmd := exec.Command("go", "env", "GOMOD")
	cmd.Dir = dir
	out, err := cmd.Output()
	gomod := strings.TrimSpace(string(out))
	if err != nil || gomod == "" || gomod == os.DevNull {
		return dir
	}
	return filepath.Dir(gomod)
}

// relPath shortens filenames under root for stable, readable output.
func relPath(root, name string) string {
	if rel, err := filepath.Rel(root, name); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return name
}

func fatal(stderr io.Writer, err error) int {
	fmt.Fprintln(stderr, "scvet:", err)
	return 2
}
