// Package analysis is SmartCrowd's project-specific static-analysis
// suite: the pass catalog behind `cmd/scvet`. Generic linters cannot see
// the invariants this codebase actually depends on — consensus-critical
// packages must be bit-deterministic across nodes, expensive crypto must
// stay out of mutex critical sections (the stage-1/stage-2 split), locks
// must be taken in one order, and every allocation sized by a
// network-decoded value must be bounded first. Each pass encodes one of
// those invariants as a machine check over the type-checked AST; where a
// Go type or the telemetry registry can enforce a rule's whole class,
// they do, and no pass is kept for it.
//
// The implementation is deliberately stdlib-only (go/parser + go/ast +
// go/types), matching the repo's zero-dependency rule. Packages are
// loaded by shelling out to `go list -deps -export -json`, which yields
// both the file sets to parse and compiler export data for every import;
// a gc-importer with a lookup function then lets go/types resolve imports
// without golang.org/x/tools.
package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
)

// Package is one type-checked target package ready for the passes.
type Package struct {
	// ImportPath is the package's import path. The test harness loads
	// fixture packages under the "as-if" path of the production package
	// they stand in for, so path-scoped passes apply.
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Pkg        *types.Package
	Info       *types.Info
	// TypeErrors collects soft type-check errors. Loading keeps going so
	// scvet can still report on a tree mid-refactor, but callers may want
	// to surface these.
	TypeErrors []error
	// Prog links back to the whole load: the interprocedural passes
	// (lockorder, goleak, wiretaint) need every package's function bodies
	// to chase calls across package boundaries. Load wires all packages
	// into one Program; the fixture harness wraps each fixture in its own.
	Prog *Program
}

// listPkg is the subset of `go list -json` output the loader consumes.
type listPkg struct {
	ImportPath string
	Dir        string
	Export     string
	GoFiles    []string
	Module     *struct {
		Main bool
		Dir  string
	}
}

// newInfo allocates the full types.Info map set the passes rely on.
func newInfo() *types.Info {
	return &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Defs:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
}

// goList runs `go list -deps -export -json` in dir for the given
// patterns and returns the decoded package stream.
func goList(dir string, patterns []string) ([]listPkg, error) {
	args := append([]string{
		"list", "-deps", "-export",
		"-json=ImportPath,Dir,Export,GoFiles,Module",
	}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", patterns, err, stderr.Bytes())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []listPkg
	for {
		var p listPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: decode go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// exportImporter builds a types.Importer that resolves every import from
// the compiler export data `go list -export` reported.
func exportImporter(fset *token.FileSet, exports map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("analysis: no export data for %q", path)
		}
		return os.Open(file)
	}
	return importer.ForCompiler(fset, "gc", lookup)
}

// parseFiles parses the named files (joined onto dir) with comments.
func parseFiles(fset *token.FileSet, dir string, names []string) ([]*ast.File, error) {
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil,
			parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	return files, nil
}

// Load type-checks every main-module package matched by patterns
// (relative to dir, typically "./...") and returns them sorted by import
// path. Import resolution uses compiler export data, so the tree must
// build — which tier-1 already requires.
func Load(dir string, patterns ...string) ([]*Package, error) {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	exports := make(map[string]string, len(listed))
	var targets []listPkg
	absDir, err := filepath.Abs(dir)
	whole := err == nil && len(patterns) == 1 && patterns[0] == "./..."
	for _, p := range listed {
		if p.Export != "" {
			exports[p.ImportPath] = p.Export
		}
		if p.Module != nil && p.Module.Main && len(p.GoFiles) > 0 {
			targets = append(targets, p)
			whole = whole && p.Module.Dir == absDir
		}
	}
	fset := token.NewFileSet()
	imp := exportImporter(fset, exports)
	var out []*Package
	for _, t := range targets {
		files, err := parseFiles(fset, t.Dir, t.GoFiles)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %v", t.ImportPath, err)
		}
		pkg := &Package{
			ImportPath: t.ImportPath,
			Dir:        t.Dir,
			Fset:       fset,
			Files:      files,
			Info:       newInfo(),
		}
		conf := types.Config{
			Importer: imp,
			Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
		}
		// Check returns the package even on soft errors; the passes
		// tolerate partial type info.
		pkg.Pkg, _ = conf.Check(t.ImportPath, fset, files, pkg.Info)
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ImportPath < out[j].ImportPath })
	prog := &Program{Pkgs: out, Whole: whole}
	for _, p := range out {
		p.Prog = prog
	}
	return out, nil
}
