package analysis

import (
	"fmt"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"testing"
)

// The fixture harness is a hand-rolled analysistest: each pass has a
// package under testdata/src/<pass>/ whose files carry
//
//	<code> // want `regex`
//
// comments on every line the pass must flag. runFixture loads the
// package as-if it had the given import path, runs exactly one pass, and
// requires a 1:1 match between findings and want annotations — missing
// findings, unexpected findings, and non-matching messages all fail.

var wantRE = regexp.MustCompile("// want `([^`]+)`")

// writeFile is a tiny test helper for allowlist files.
func writeFile(t *testing.T, path, content string) error {
	t.Helper()
	return os.WriteFile(path, []byte(content), 0o644)
}

// expectation is one want annotation.
type expectation struct {
	file string // basename
	line int
	re   *regexp.Regexp
}

func parseWants(t *testing.T, pkg *Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, file := range pkg.Files {
		for _, group := range file.Comments {
			for _, c := range group.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				re, err := regexp.Compile(m[1])
				if err != nil {
					pos := pkg.Fset.Position(c.Pos())
					t.Fatalf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, m[1], err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &expectation{
					file: filepath.Base(pos.Filename),
					line: pos.Line,
					re:   re,
				})
			}
		}
	}
	return wants
}

// loadFixture loads testdata/src/<name> as-if it were asPath.
func loadFixture(t *testing.T, name, asPath string) *Package {
	t.Helper()
	moduleDir, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loadDir(moduleDir, filepath.Join("testdata", "src", name), asPath)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("fixture %s: type error: %v", name, terr)
	}
	return pkg
}

// runFixture executes one pass over its fixture and diffs findings
// against the want annotations. It returns the findings for further
// assertions (the allowlist test reuses them). Packages passed as others
// join the fixture's Program, for passes that look across package
// boundaries.
func runFixture(t *testing.T, passName, asPath string, others ...*Package) []Finding {
	t.Helper()
	pass := passByName[passName]
	if pass == nil {
		t.Fatalf("unknown pass %q", passName)
	}
	pkg := loadFixture(t, passName, asPath)
	pkg.Prog.Pkgs = append(pkg.Prog.Pkgs, others...)
	findings := pass.Run(pkg)
	wants := parseWants(t, pkg)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want annotations", passName)
	}

	matched := make([]bool, len(findings))
	for _, want := range wants {
		found := false
		for i, f := range findings {
			if matched[i] || filepath.Base(f.Pos.Filename) != want.file || f.Pos.Line != want.line {
				continue
			}
			if !want.re.MatchString(f.Msg) {
				t.Errorf("%s:%d: finding %q does not match want `%s`",
					want.file, want.line, f.Msg, want.re)
			}
			matched[i] = true
			found = true
			break
		}
		if !found {
			t.Errorf("%s:%d: no [%s] finding; want `%s`", want.file, want.line, passName, want.re)
		}
	}
	for i, f := range findings {
		if !matched[i] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	if len(findings) != len(wants) {
		t.Errorf("fixture %s: %d findings, %d want annotations", passName, len(findings), len(wants))
	}
	// Every finding must render in the file:line: [pass] message shape
	// scvet prints.
	for _, f := range findings {
		rendered := f.String()
		wantShape := fmt.Sprintf(":%d: [%s] ", f.Pos.Line, f.Pass)
		if !regexp.MustCompile(regexp.QuoteMeta(wantShape)).MatchString(rendered) {
			t.Errorf("finding %q missing canonical `file:line: [pass]` shape", rendered)
		}
	}
	return findings
}

// loadDir type-checks a single directory of Go files outside the normal
// build (the testdata fixture packages live under testdata/, which the go
// tool ignores). moduleDir anchors `go list` so the fixtures' imports —
// stdlib or module-internal — resolve through export data. asPath is the
// import path the fixture pretends to be, so path-scoped passes fire.
func loadDir(moduleDir, fixtureDir, asPath string) (*Package, error) {
	entries, err := os.ReadDir(fixtureDir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		if !e.IsDir() && filepath.Ext(e.Name()) == ".go" {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		return nil, fmt.Errorf("analysis: no Go files in %s", fixtureDir)
	}
	fset := token.NewFileSet()
	files, err := parseFiles(fset, fixtureDir, names)
	if err != nil {
		return nil, err
	}
	// Resolve the fixture's imports through the module's build cache.
	importSet := map[string]bool{}
	for _, f := range files {
		for _, spec := range f.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err == nil && path != "C" {
				importSet[path] = true
			}
		}
	}
	exports := map[string]string{}
	if len(importSet) > 0 {
		patterns := make([]string, 0, len(importSet))
		for path := range importSet {
			patterns = append(patterns, path)
		}
		sort.Strings(patterns)
		listed, err := goList(moduleDir, patterns)
		if err != nil {
			return nil, err
		}
		for _, p := range listed {
			if p.Export != "" {
				exports[p.ImportPath] = p.Export
			}
		}
	}
	pkg := &Package{
		ImportPath: asPath,
		Dir:        fixtureDir,
		Fset:       fset,
		Files:      files,
		Info:       newInfo(),
	}
	conf := types.Config{
		Importer: exportImporter(fset, exports),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	pkg.Pkg, _ = conf.Check(asPath, fset, files, pkg.Info)
	pkg.Prog = &Program{Pkgs: []*Package{pkg}, Whole: true}
	return pkg, nil
}
