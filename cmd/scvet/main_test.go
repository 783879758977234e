package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/analysis"
)

// The CLI contract under test: exit 0 clean / 1 findings / 2 usage,
// -list mirroring the catalog, -json machine output with the canonical
// text lines intact on stderr, -strict failing on stale allowlist
// entries, and allowlist resolution from a subdirectory of the module.

// chdir switches the working directory for one test. run() resolves the
// module root and load patterns from the cwd, so tests steer it this way.
func chdir(t *testing.T, dir string) {
	t.Helper()
	old, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(old) })
}

// writeTempModule lays out a throwaway module with one dirty package
// (internal/leak spawns an unstoppable goroutine — exactly one goleak
// finding), one clean package, and a command that uses both so their
// exports are live.
func writeTempModule(t *testing.T) string {
	t.Helper()
	dir := t.TempDir()
	files := map[string]string{
		"go.mod": "module example.com/tmpmod\n\ngo 1.22\n",
		"internal/leak/leak.go": `package leak

type S struct{ n int }

func (s *S) poll() { s.n++ }

// Spin leaks: the goroutine loops forever with no stop signal.
func Spin(s *S) {
	go func() {
		for {
			s.poll()
		}
	}()
}
`,
		"internal/okpkg/ok.go": `package okpkg

func Add(a, b int) int { return a + b }
`,
		"cmd/tmpmod/main.go": `package main

import (
	"example.com/tmpmod/internal/leak"
	"example.com/tmpmod/internal/okpkg"
)

func main() { leak.Spin(&leak.S{}); _ = okpkg.Add(1, 2) }
`,
	}
	for name, content := range files {
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

func runCLI(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errBuf bytes.Buffer
	code = run(args, &out, &errBuf)
	return code, out.String(), errBuf.String()
}

func TestListMatchesCatalog(t *testing.T) {
	code, stdout, _ := runCLI(t, "-list")
	if code != 0 {
		t.Fatalf("-list exit = %d, want 0", code)
	}
	lines := strings.Split(strings.TrimRight(stdout, "\n"), "\n")
	passes := analysis.Passes()
	if len(passes) < 10 {
		t.Fatalf("catalog has %d passes, want at least 10", len(passes))
	}
	if len(lines) != len(passes) {
		t.Fatalf("-list printed %d lines, catalog has %d passes", len(lines), len(passes))
	}
	for i, p := range passes {
		if !strings.HasPrefix(lines[i], p.Name) || !strings.Contains(lines[i], p.Doc) {
			t.Errorf("-list line %d = %q, want pass %q with doc", i, lines[i], p.Name)
		}
	}
}

func TestUnknownPassIsUsageError(t *testing.T) {
	code, _, stderr := runCLI(t, "-pass", "nosuchpass")
	if code != 2 {
		t.Fatalf("exit = %d, want 2", code)
	}
	if !strings.Contains(stderr, `unknown pass "nosuchpass"`) {
		t.Fatalf("stderr = %q, want unknown-pass message", stderr)
	}
}

func TestExitCodesDirtyAndClean(t *testing.T) {
	mod := writeTempModule(t)
	chdir(t, mod)

	code, stdout, _ := runCLI(t, "./...")
	if code != 1 {
		t.Fatalf("dirty tree exit = %d, want 1 (stdout %q)", code, stdout)
	}
	if !strings.Contains(stdout, "[goleak]") || !strings.Contains(stdout, "leak.go") {
		t.Fatalf("stdout = %q, want a goleak finding in leak.go", stdout)
	}

	code, stdout, stderr := runCLI(t, "./internal/okpkg")
	if code != 0 {
		t.Fatalf("clean package exit = %d, want 0 (stdout %q stderr %q)", code, stdout, stderr)
	}
}

func TestJSONFindings(t *testing.T) {
	mod := writeTempModule(t)
	chdir(t, mod)

	code, stdout, stderr := runCLI(t, "-json", "./...")
	if code != 1 {
		t.Fatalf("exit = %d, want 1", code)
	}
	var findings []struct {
		File    string `json:"file"`
		Line    int    `json:"line"`
		Pass    string `json:"pass"`
		Message string `json:"message"`
	}
	if err := json.Unmarshal([]byte(stdout), &findings); err != nil {
		t.Fatalf("stdout is not a JSON finding array: %v\n%s", err, stdout)
	}
	if len(findings) != 1 || findings[0].Pass != "goleak" || findings[0].Line == 0 ||
		!strings.HasSuffix(findings[0].File, "leak.go") {
		t.Fatalf("findings = %+v, want one goleak finding in leak.go", findings)
	}
	// The canonical text line moves to stderr so log-based problem
	// matchers still annotate the PR.
	if !strings.Contains(stderr, "leak.go") || !strings.Contains(stderr, "[goleak]") {
		t.Fatalf("stderr = %q, want canonical file:line: [pass] line", stderr)
	}
}

func TestStrictFailsOnStaleAllowlist(t *testing.T) {
	mod := writeTempModule(t)
	chdir(t, mod)
	allow := filepath.Join(mod, "stale.allow")
	if err := os.WriteFile(allow, []byte("# audited: entry for code that no longer exists\nsenterr no_such_file.go nothing matches this\n"), 0o644); err != nil {
		t.Fatal(err)
	}

	code, _, stderr := runCLI(t, "-allow", allow, "./internal/okpkg")
	if code != 0 || !strings.Contains(stderr, "matched nothing") {
		t.Fatalf("non-strict: exit %d stderr %q, want 0 with a stale warning", code, stderr)
	}
	code, _, stderr = runCLI(t, "-strict", "-allow", allow, "./internal/okpkg")
	if code != 1 || !strings.Contains(stderr, "stale allowlist") {
		t.Fatalf("strict: exit %d stderr %q, want 1 citing stale entries", code, stderr)
	}
}

func TestAllowlistResolvedFromSubdirectory(t *testing.T) {
	mod := writeTempModule(t)
	if err := os.WriteFile(filepath.Join(mod, ".scvet.allow"),
		[]byte("# audited: fixture leak under test\ngoleak leak.go has no reachable termination path\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	// Run from inside internal/leak with no -allow flag: the module
	// root's .scvet.allow must still be found and suppress the finding.
	chdir(t, filepath.Join(mod, "internal", "leak"))
	code, stdout, stderr := runCLI(t, "./...")
	if code != 0 {
		t.Fatalf("exit = %d, want 0 (stdout %q stderr %q)", code, stdout, stderr)
	}
	if !strings.Contains(stderr, "suppressed") {
		t.Fatalf("stderr = %q, want suppression summary", stderr)
	}
}
