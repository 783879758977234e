package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// passDeadexport flags an exported package-level symbol (func, type,
// var, const) or exported method of an exported type in an internal/
// package that no non-test file in the module refers to. Such a symbol
// is production code only a test keeps alive: a shadow implementation
// or oracle that belongs in a _test.go file, a helper that should be
// unexported or moved to export_test.go, or dead code. benchmark/,
// cmd/, examples/ and the root package are ordinary module packages, so
// their uses count; a reference from the symbol's own declaration (a
// recursive call) does not.
//
// A method is also live when its receiver satisfies an interface the
// program uses — one declared or written inline anywhere in the module,
// named in module code, or taken as a parameter by a function the module
// calls (sort.Sort, http.Handle) — and the interface has that method:
// the call arrives through the interface and no identifier names the
// concrete method. The match is by method name and signature, not by
// proving a conversion exists, so the pass under-reports rather than
// flag a method an interface call reaches. Methods the standard library
// finds by reflection (reflectiveMethods) are exempt for the same reason.
// Symbols of unexported types and struct fields are not examined.
//
// The from-scratch primitive packages (primitivePkgs) are exempt by
// rule: their exported surface mirrors a published reference API that
// the test vectors exercise whole, whether or not the node calls every
// entry point. Genuine test hooks on production types are allowlisted
// with their reason.
var passDeadexport = &Pass{
	Name: "deadexport",
	Doc:  "exported internal/ symbols need a reference from a non-test file (whole-module loads only)",
	Run:  runDeadexport,
}

// primitivePkgs implement a published primitive from scratch; see
// passDeadexport.
var primitivePkgs = []string{
	"internal/crypto/keccak",
	"internal/crypto/merkle",
	"internal/crypto/secp256k1",
	"internal/rlp",
}

// reflectiveMethods are found by the standard library through reflection,
// never through an identifier or an interface module code names: fmt
// looks for String on every operand. (Error needs no entry — `error` is
// named everywhere, so the interface rule reaches it.)
var reflectiveMethods = map[string]bool{"String": true}

// symbolKey renders the cross-package identity of a package-level object
// or method: source-loaded and export-data objects for the same symbol
// are distinct values, so identity is by name (funcKeyOf's scheme).
func symbolKey(obj types.Object) string {
	if _, ok := obj.(*types.Func); ok {
		return funcKeyOf(obj)
	}
	if obj.Pkg() == nil || obj.Parent() != obj.Pkg().Scope() {
		return "" // universe, local, field or parameter
	}
	return obj.Pkg().Path() + "." + obj.Name()
}

// isTestFile reports whether file is a _test.go file. Load never parses
// those; a loader that does (the fixture harness) must not let them keep
// a symbol alive or be scanned for dead exports themselves.
func (p *Package) isTestFile(file *ast.File) bool {
	return strings.HasSuffix(p.Fset.Position(file.Pos()).Filename, "_test.go")
}

// deadexportFacts is the program-wide reference summary.
type deadexportFacts struct {
	refs   map[string]bool
	ifaces []*types.Interface
}

func buildDeadexportFacts(pr *Program) *deadexportFacts {
	facts := &deadexportFacts{refs: map[string]bool{}}
	seen := map[string]bool{}
	addIface := func(t types.Type) {
		if t == nil {
			return
		}
		iface, ok := t.Underlying().(*types.Interface)
		if !ok || iface.NumMethods() == 0 || seen[iface.String()] {
			return
		}
		seen[iface.String()] = true
		facts.ifaces = append(facts.ifaces, iface)
	}
	for _, p := range pr.Pkgs {
		for _, file := range p.Files {
			if p.isTestFile(file) {
				continue
			}
			for _, decl := range file.Decls {
				self := ""
				if fn, ok := decl.(*ast.FuncDecl); ok {
					if obj := p.Info.Defs[fn.Name]; obj != nil {
						self = symbolKey(obj)
					}
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.Ident:
						obj := p.Info.Uses[n]
						if obj == nil {
							return true
						}
						if tn, ok := obj.(*types.TypeName); ok {
							addIface(tn.Type())
						}
						if key := symbolKey(obj); key != "" && key != self {
							facts.refs[key] = true
						}
					case *ast.InterfaceType:
						addIface(p.Info.Types[n].Type)
					case *ast.CallExpr:
						if sig, ok := p.Info.Types[n.Fun].Type.(*types.Signature); ok {
							for i := 0; i < sig.Params().Len(); i++ {
								t := sig.Params().At(i).Type()
								if s, ok := t.(*types.Slice); ok && sig.Variadic() {
									t = s.Elem()
								}
								addIface(t)
							}
						}
					}
					return true
				})
			}
		}
	}
	return facts
}

// reachedThroughInterface reports whether method m of named is called
// through some interface the program uses: the interface has a method of
// that name, and named's method set covers the whole interface with
// identical signatures. Signatures compare as strings because the two
// sides may come from different type universes (source vs export data).
func (f *deadexportFacts) reachedThroughInterface(named *types.Named, m *types.Func) bool {
	mset := types.NewMethodSet(types.NewPointer(named))
	for _, iface := range f.ifaces {
		hasM, covered := false, true
		for i := 0; i < iface.NumMethods() && covered; i++ {
			im := iface.Method(i)
			hasM = hasM || im.Name() == m.Name()
			sel := mset.Lookup(im.Pkg(), im.Name())
			covered = sel != nil && sameSignature(sel.Type().(*types.Signature), im.Type().(*types.Signature))
		}
		if hasM && covered {
			return true
		}
	}
	return false
}

// sameSignature compares parameter and result types by their printed,
// path-qualified form (names ignored).
func sameSignature(a, b *types.Signature) bool {
	sameTuple := func(x, y *types.Tuple) bool {
		if x.Len() != y.Len() {
			return false
		}
		for i := 0; i < x.Len(); i++ {
			if types.TypeString(x.At(i).Type(), nil) != types.TypeString(y.At(i).Type(), nil) {
				return false
			}
		}
		return true
	}
	return a.Variadic() == b.Variadic() && sameTuple(a.Params(), b.Params()) && sameTuple(a.Results(), b.Results())
}

func runDeadexport(p *Package) []Finding {
	if p.Pkg == nil || !p.Prog.Whole ||
		!strings.Contains(p.ImportPath, "/internal/") || hasPathSuffix(p.ImportPath, primitivePkgs...) {
		return nil
	}
	facts := p.Prog.memoize("deadexport", func() any { return buildDeadexportFacts(p.Prog) }).(*deadexportFacts)

	var out []Finding
	report := func(id *ast.Ident, kind, name string) {
		out = append(out, p.finding("deadexport", id,
			"exported %s %s has no reference from a non-test file", kind, name))
	}
	for _, file := range p.Files {
		if p.isTestFile(file) {
			continue
		}
		for _, decl := range file.Decls {
			switch decl := decl.(type) {
			case *ast.FuncDecl:
				obj, _ := p.Info.Defs[decl.Name].(*types.Func)
				if obj == nil || !obj.Exported() || facts.refs[symbolKey(obj)] {
					continue
				}
				recv := obj.Type().(*types.Signature).Recv()
				if recv == nil {
					report(decl.Name, "func", obj.Name())
					continue
				}
				named := namedOf(recv.Type())
				if named == nil || !named.Obj().Exported() || reflectiveMethods[obj.Name()] ||
					facts.reachedThroughInterface(named, obj) {
					continue
				}
				report(decl.Name, "method", named.Obj().Name()+"."+obj.Name())
			case *ast.GenDecl:
				for _, spec := range decl.Specs {
					var ids []*ast.Ident
					kind := "type"
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						ids = []*ast.Ident{spec.Name}
					case *ast.ValueSpec:
						ids, kind = spec.Names, strings.ToLower(decl.Tok.String())
					}
					for _, id := range ids {
						obj := p.Info.Defs[id]
						if obj != nil && obj.Exported() && !facts.refs[symbolKey(obj)] {
							report(id, kind, obj.Name())
						}
					}
				}
			}
		}
	}
	return out
}
