// Command scvet runs SmartCrowd's project-specific static-analysis
// passes over the module and exits non-zero on findings. It is the
// machine check behind the invariants earlier changes established by
// hand: consensus determinism (detsource), errors.Is discipline
// (senterr), crypto-free critical sections (locksafe), deadlock-free
// lock ordering (lockorder), terminating goroutines (goleak), wire taint
// tracking (wiretaint), event discipline (logdisc), durable commits
// (fsyncdisc), and no test-only production code (deadexport).
//
// Usage:
//
//	scvet [-list] [-json] [packages]
//
// Packages default to ./... . Audited exceptions live in .scvet.allow at
// the module root (see internal/analysis.Allowlist for the format). On a
// whole-module run (./... from the root) an entry that matches nothing is
// stale and fails the run, so the allowlist cannot outlive the code it
// excuses. -json emits machine-readable findings on stdout while the
// canonical `file:line: [pass] message` lines move to stderr, so
// log-scanning problem matchers keep working.
//
// Exit codes: 0 clean, 1 findings or stale entries, 2 usage or load
// failure.
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
	list := fs.Bool("list", false, "print the pass catalog and exit")
	jsonOut := fs.Bool("json", false, "emit findings as JSON on stdout (text lines move to stderr)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, p := range analysis.Passes() {
			fmt.Fprintf(stdout, "%-12s %s\n", p.Name, p.Doc)
		}
		return 0
	}

	cwd, err := os.Getwd()
	if err != nil {
		return fatal(stderr, err)
	}
	root := moduleRoot(cwd)
	allowPath := filepath.Join(root, ".scvet.allow")
	allow, err := analysis.LoadAllowlist(allowPath)
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

	findings, suppressed := allow.Filter(analysis.RunPasses(pkgs, analysis.Passes()))
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

	// Only a whole-module load can show an entry matches nothing: a
	// narrower one leaves out the files other entries name.
	var stale []*analysis.AllowEntry
	if len(pkgs) > 0 && pkgs[0].Prog.Whole {
		stale = allow.Unused()
	}
	for _, e := range stale {
		fmt.Fprintf(stderr, "scvet: %s:%d: allowlist entry matched nothing (stale): %s %s %q\n",
			allowPath, e.Line, e.Pass, e.FileSuffix, e.MsgSub)
	}

	switch {
	case len(findings) > 0:
		fmt.Fprintf(stderr, "scvet: %d finding(s), %d suppressed by allowlist\n", len(findings), suppressed)
		return 1
	case len(stale) > 0:
		fmt.Fprintf(stderr, "scvet: %d stale allowlist entr%s\n", len(stale), plural(len(stale), "y", "ies"))
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
