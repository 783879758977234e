package analysis

import (
	"go/token"
	"path/filepath"
	"strings"
	"testing"
)

// The module path prefix the fixtures pretend to live under. Passes
// match on path suffix, so any prefix works; using the real one keeps
// the fixtures honest.
const modPrefix = "github.com/smartcrowd/smartcrowd/"

func TestDetsourceFixture(t *testing.T) {
	runFixture(t, "detsource", modPrefix+"internal/chain")
}

func TestSenterrFixture(t *testing.T) {
	// senterr applies to every package; an arbitrary path exercises that.
	runFixture(t, "senterr", modPrefix+"internal/node")
}

func TestLocksafeFixture(t *testing.T) {
	runFixture(t, "locksafe", modPrefix+"internal/chain")
}

func TestLockorderFixture(t *testing.T) {
	runFixture(t, "lockorder", modPrefix+"internal/chain")
}

func TestGoleakFixture(t *testing.T) {
	runFixture(t, "goleak", modPrefix+"internal/node")
}

func TestWiretaintFixture(t *testing.T) {
	runFixture(t, "wiretaint", modPrefix+"internal/p2p")
}

func TestLogdiscFixture(t *testing.T) {
	runFixture(t, "logdisc", modPrefix+"internal/node")
}

func TestFsyncdiscFixture(t *testing.T) {
	runFixture(t, "fsyncdisc", modPrefix+"internal/store")
}

// TestDeadexportFixture loads the fixture library under its real import
// path so the user package, which imports it through export data, names
// the same symbols; the user package joins the library's Program the way
// Load links a whole module.
func TestDeadexportFixture(t *testing.T) {
	lib := modPrefix + "internal/analysis/testdata/src/deadexport"
	user := loadFixture(t, "deadexport/user", lib+"/user")
	runFixture(t, "deadexport", lib, user)
}

// TestLogdiscAllowlisted proves a logdisc finding is suppressible via
// the committed .scvet.allow mechanism like any other pass.
func TestLogdiscAllowlisted(t *testing.T) {
	findings := runFixture(t, "logdisc", modPrefix+"internal/node")
	if len(findings) == 0 {
		t.Fatal("fixture produced no findings")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, ".scvet.allow")
	entry := "logdisc " + filepath.Base(findings[0].Pos.Filename) + " " + findings[0].Msg
	if err := writeFile(t, path, "# audited: fixture exception\n"+entry+"\n"); err != nil {
		t.Fatal(err)
	}
	allow, err := LoadAllowlist(path)
	if err != nil {
		t.Fatal(err)
	}
	kept, suppressed := allow.Filter(findings)
	if suppressed != 1 || len(kept) != len(findings)-1 {
		t.Fatalf("suppressed %d / kept %d, want 1 / %d", suppressed, len(kept), len(findings)-1)
	}
}

// TestPassesScopedToTheirPackages proves the path-scoped passes stay
// silent when the same code lives outside their jurisdiction: the
// detsource fixture is full of violations, but a non-consensus package
// is allowed to read the clock.
func TestPassesScopedToTheirPackages(t *testing.T) {
	for _, tc := range []struct{ pass, asPath string }{
		{"detsource", modPrefix + "internal/telemetry"},
		{"locksafe", modPrefix + "internal/node"},
		{"lockorder", modPrefix + "internal/incentive"},
		{"goleak", modPrefix + "cmd/smartcrowd"},
		{"wiretaint", modPrefix + "cmd/smartcrowd"},
		{"wiretaint", modPrefix + "internal/state"},
		{"logdisc", modPrefix + "cmd/smartcrowd"},
		{"logdisc", modPrefix + "internal/telemetry"},
		{"fsyncdisc", modPrefix + "internal/chain"},
		{"deadexport", modPrefix + "cmd/smartcrowd"},
	} {
		pkg := loadFixture(t, tc.pass, tc.asPath)
		if got := passByName[tc.pass].Run(pkg); len(got) != 0 {
			t.Errorf("[%s] as %s: want no findings outside scoped packages, got %v", tc.pass, tc.asPath, got)
		}
	}
}

// TestAllowlistSuppression proves a committed allowlist entry suppresses
// a finding (the build would pass) while an unrelated entry does not,
// and that stale entries are reported as unused.
func TestAllowlistSuppression(t *testing.T) {
	findings := runFixture(t, "wiretaint", modPrefix+"internal/p2p")
	if len(findings) == 0 {
		t.Fatal("fixture produced no findings to suppress")
	}
	// Entries match on message text; suppress a finding no other shares.
	perMsg := map[string]int{}
	for _, f := range findings {
		perMsg[f.Msg]++
	}
	target := findings[0]
	for _, f := range findings {
		if perMsg[f.Msg] == 1 {
			target = f
			break
		}
	}

	dir := t.TempDir()
	path := filepath.Join(dir, ".scvet.allow")
	content := strings.Join([]string{
		"# audited: fixture exception under test",
		"wiretaint " + filepath.Base(target.Pos.Filename) + " " + target.Msg,
		"# stale entry that matches nothing",
		"senterr no_such_file.go no such finding",
		"",
	}, "\n")
	if err := writeFile(t, path, content); err != nil {
		t.Fatal(err)
	}
	allow, err := LoadAllowlist(path)
	if err != nil {
		t.Fatal(err)
	}

	kept, suppressed := allow.Filter(findings)
	if suppressed != 1 {
		t.Fatalf("suppressed = %d, want 1", suppressed)
	}
	if len(kept) != len(findings)-1 {
		t.Fatalf("kept %d findings, want %d", len(kept), len(findings)-1)
	}
	for _, f := range kept {
		if f == target {
			t.Fatalf("allowlisted finding still reported: %s", f)
		}
	}
	unused := allow.Unused()
	if len(unused) != 1 || unused[0].Pass != "senterr" {
		t.Fatalf("unused = %+v, want the stale senterr entry", unused)
	}
}

func TestAllowlistMissingFileIsEmpty(t *testing.T) {
	allow, err := LoadAllowlist(filepath.Join(t.TempDir(), "absent"))
	if err != nil {
		t.Fatal(err)
	}
	if len(allow.Entries) != 0 {
		t.Fatalf("want empty allowlist, got %d entries", len(allow.Entries))
	}
}

func TestAllowlistRejectsMalformedEntries(t *testing.T) {
	dir := t.TempDir()
	for name, content := range map[string]string{
		"short.allow":   "detsource onlytwo",
		"badpass.allow": "nosuchpass file.go some message",
	} {
		path := filepath.Join(dir, name)
		if err := writeFile(t, path, content); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadAllowlist(path); err == nil {
			t.Errorf("%s: want parse error, got nil", name)
		}
	}
}

// TestRepoCleanUnderScvet is the acceptance criterion as a test: the
// real tree, filtered through the committed allowlist, has zero
// findings. It loads and type-checks the whole module, so it is skipped
// in -short runs.
func TestRepoCleanUnderScvet(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, pkgs := loadModule(t)
	if len(pkgs) < 20 {
		t.Fatalf("loaded only %d packages; loader lost most of the module", len(pkgs))
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.ImportPath, terr)
		}
	}
	allow, err := LoadAllowlist(filepath.Join(root, ".scvet.allow"))
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := allow.Filter(RunPasses(pkgs, Passes()))
	for _, f := range kept {
		t.Errorf("unexpected finding in tree: %s", f)
	}
	for _, e := range allow.Unused() {
		t.Errorf("stale allowlist entry (line %d): %s %s %q", e.Line, e.Pass, e.FileSuffix, e.MsgSub)
	}
}

// TestFindingString pins the canonical rendering scvet prints and CI
// greps for.
func TestFindingString(t *testing.T) {
	f := Finding{
		Pos:  token.Position{Filename: "internal/wire/frame.go", Line: 42},
		Pass: "wiretaint",
		Msg:  "message",
	}
	if got, want := f.String(), "internal/wire/frame.go:42: [wiretaint] message"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}
