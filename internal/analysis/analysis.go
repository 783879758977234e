package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Finding is one diagnostic: a position, the pass that produced it, and a
// human-readable message. String renders the canonical
// `file:line: [pass] message` form scvet prints and the fixture harness
// matches against.
type Finding struct {
	Pos  token.Position
	Pass string
	Msg  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: [%s] %s", f.Pos.Filename, f.Pos.Line, f.Pass, f.Msg)
}

// Pass is one invariant check over a type-checked package.
type Pass struct {
	Name string
	// Doc is the one-line description `scvet -list` prints.
	Doc string
	Run func(p *Package) []Finding
}

// passCatalog is built once at package init: Passes is called per
// allowlist line and per finding, so rebuilding the slice each call was
// pure allocation churn. The order is the reporting order.
var passCatalog = []*Pass{
	passDetsource,
	passSenterr,
	passLocksafe,
	passLockorder,
	passGoleak,
	passMetricname,
	passWiretaint,
	passLogdisc,
	passFsyncdisc,
	passDeadexport,
}

// passByName indexes the catalog for PassByName, built alongside it.
var passByName = func() map[string]*Pass {
	m := make(map[string]*Pass, len(passCatalog))
	for _, p := range passCatalog {
		m[p.Name] = p
	}
	return m
}()

// Passes returns the full catalog in reporting order.
func Passes() []*Pass { return passCatalog }

// PassByName resolves a catalog entry; nil if unknown.
func PassByName(name string) *Pass { return passByName[name] }

// RunPasses executes the given passes over every package and returns the
// findings sorted by file, line, then pass name.
func RunPasses(pkgs []*Package, passes []*Pass) []Finding {
	var out []Finding
	for _, pkg := range pkgs {
		for _, pass := range passes {
			out = append(out, pass.Run(pkg)...)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Pass < b.Pass
	})
	return out
}

// finding builds a Finding at node's position.
func (p *Package) finding(pass string, node ast.Node, format string, args ...any) Finding {
	return Finding{
		Pos:  p.Fset.Position(node.Pos()),
		Pass: pass,
		Msg:  fmt.Sprintf(format, args...),
	}
}

// hasPathSuffix reports whether path ends in one of the given
// slash-separated suffixes (e.g. "internal/chain"). Matching on suffix
// instead of the full module path keeps the passes working on fixture
// packages and under module renames.
func hasPathSuffix(path string, suffixes ...string) bool {
	for _, s := range suffixes {
		if path == s || strings.HasSuffix(path, "/"+s) {
			return true
		}
	}
	return false
}

// importedPkgPath returns the import path when e is a package-qualifier
// identifier (the `time` in `time.Now`), else "".
func importedPkgPath(info *types.Info, e ast.Expr) string {
	id, ok := e.(*ast.Ident)
	if !ok {
		return ""
	}
	if pn, ok := info.Uses[id].(*types.PkgName); ok {
		return pn.Imported().Path()
	}
	return ""
}

// calleeObj resolves the object a call invokes: package functions,
// qualified functions and methods. Returns nil for builtins, indirect
// calls through function values it cannot see, or missing type info.
func calleeObj(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[fn]; ok {
			return sel.Obj()
		}
		return info.Uses[fn.Sel]
	}
	return nil
}

// calleePkgPath returns the defining package path of a call's callee, or
// "" when unresolvable (builtins, locals, missing info).
func calleePkgPath(info *types.Info, call *ast.CallExpr) string {
	obj := calleeObj(info, call)
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	return obj.Pkg().Path()
}

// baseFilename returns the basename of the file containing node.
func (p *Package) baseFilename(node ast.Node) string {
	name := p.Fset.Position(node.Pos()).Filename
	if i := strings.LastIndexByte(name, '/'); i >= 0 {
		name = name[i+1:]
	}
	return name
}

// errorIface is the universe error interface, for Implements checks.
var errorIface = types.Universe.Lookup("error").Type().Underlying().(*types.Interface)

// isErrorType reports whether t implements error (interfaces included).
func isErrorType(t types.Type) bool {
	if t == nil {
		return false
	}
	return types.Implements(t, errorIface) || types.Implements(types.NewPointer(t), errorIface)
}

// isNilIdent reports whether e is the predeclared nil.
func isNilIdent(info *types.Info, e ast.Expr) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	return obj != nil && obj == types.Universe.Lookup("nil")
}

// varObj resolves an identifier to the variable it names, nil otherwise.
func varObj(info *types.Info, id *ast.Ident) *types.Var {
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	v, _ := obj.(*types.Var)
	return v
}
