package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
	"sync"
)

// Program is one whole load: every type-checked package plus the shared
// interprocedural infrastructure (call graph, per-pass summaries) built
// over all of them. The per-function AST passes never need it, but
// lockorder, goleak, and wiretaint chase facts across function and
// package boundaries — a lock acquired three calls deep, a stop-channel
// receive in a helper, a bound check in a callee — so they analyze the
// Program once and report per package.
type Program struct {
	Pkgs []*Package
	// Whole reports that Pkgs is the entire module (Load of "./..." from
	// the module root), so every non-test user of every symbol is in
	// hand; deadexport stays silent on narrower loads, where a symbol's
	// users may simply not have been loaded.
	Whole bool

	mu   sync.Mutex
	cg   *CallGraph
	memo map[string]any
}

// CallGraph returns the program's call graph, built on first use.
func (pr *Program) CallGraph() *CallGraph {
	pr.mu.Lock()
	cg := pr.cg
	pr.mu.Unlock()
	if cg != nil {
		return cg
	}
	cg = buildCallGraph(pr)
	pr.mu.Lock()
	if pr.cg == nil {
		pr.cg = cg
	}
	cg = pr.cg
	pr.mu.Unlock()
	return cg
}

// memoize caches a program-wide computation under key. build runs
// outside the lock (it typically needs CallGraph itself); a duplicate
// build under contention is wasted work, never a wrong answer.
func (pr *Program) memoize(key string, build func() any) any {
	pr.mu.Lock()
	v, ok := pr.memo[key]
	pr.mu.Unlock()
	if ok {
		return v
	}
	v = build()
	pr.mu.Lock()
	if pr.memo == nil {
		pr.memo = map[string]any{}
	}
	if prev, ok := pr.memo[key]; ok {
		v = prev
	} else {
		pr.memo[key] = v
	}
	pr.mu.Unlock()
	return v
}

// CallSite is one resolved call inside a function body.
type CallSite struct {
	Call *ast.CallExpr
	// Callees are the possible targets as function keys: exactly one for
	// direct calls, every module implementation for interface-method
	// calls (static dispatch over-approximates dynamic dispatch).
	Callees []string
	// InGoLit marks calls lexically inside a go-launched func literal:
	// they run concurrently with the enclosing function, so lock-held
	// propagation must not flow into them.
	InGoLit bool
	// Deferred marks calls inside a defer statement: they run at return,
	// after lexical critical sections have closed.
	Deferred bool
}

// FuncNode is one declared function or method with a body.
type FuncNode struct {
	Key   string
	Pkg   *Package
	Decl  *ast.FuncDecl
	Calls []CallSite
}

// CallsIn returns the node's call sites whose positions fall inside
// [pos, end) — used to scope queries to one func literal's body.
func (n *FuncNode) CallsIn(pos, end token.Pos) []CallSite {
	var out []CallSite
	for _, c := range n.Calls {
		if c.Call.Pos() >= pos && c.Call.Pos() < end {
			out = append(out, c)
		}
	}
	return out
}

// CallGraph maps function keys to their nodes. Keys are
// "<pkg-path>.Name" for functions and "<pkg-path>.(Type).Name" for
// methods — stable across the source/export-data object split, so a
// call into another source-loaded package lands on that package's node.
type CallGraph struct {
	Funcs map[string]*FuncNode
}

// funcKeyOf renders the cross-package key for a function object.
func funcKeyOf(fn types.Object) string {
	if fn == nil || fn.Pkg() == nil {
		return ""
	}
	key := fn.Pkg().Path() + "."
	if sig, ok := fn.Type().(*types.Signature); ok && sig.Recv() != nil {
		t := sig.Recv().Type()
		if ptr, ok := t.(*types.Pointer); ok {
			t = ptr.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			key += "(" + named.Obj().Name() + ")."
		}
	}
	return key + fn.Name()
}

// shortPkg is the last path element: display form for lock ids and
// finding messages ("internal/chain" -> "chain").
func shortPkg(path string) string {
	if i := strings.LastIndexByte(path, '/'); i >= 0 {
		return path[i+1:]
	}
	return path
}

// shortKey compresses a function key for messages:
// ".../internal/chain.(Chain).setHead" -> "chain.(Chain).setHead".
func shortKey(key string) string {
	i := strings.LastIndexByte(key, '/')
	if i < 0 {
		return key
	}
	return key[i+1:]
}

// goLitRanges returns the source span of every go-launched func literal
// body under root, at any nesting depth.
func goLitRanges(root ast.Node) [][2]token.Pos {
	var out [][2]token.Pos
	ast.Inspect(root, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
				out = append(out, [2]token.Pos{lit.Body.Pos(), lit.Body.End()})
			}
		}
		return true
	})
	return out
}

func inRanges(ranges [][2]token.Pos, pos token.Pos) bool {
	for _, r := range ranges {
		if r[0] <= pos && pos < r[1] {
			return true
		}
	}
	return false
}

func buildCallGraph(pr *Program) *CallGraph {
	cg := &CallGraph{Funcs: map[string]*FuncNode{}}

	// Every named type the program declares, for interface-call
	// resolution. All source packages share one export-data importer, so
	// Implements checks across package universes agree on imported types.
	var namedTypes []*types.Named
	for _, p := range pr.Pkgs {
		if p.Pkg == nil {
			continue
		}
		scope := p.Pkg.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if named, ok := tn.Type().(*types.Named); ok {
					namedTypes = append(namedTypes, named)
				}
			}
		}
	}

	for _, p := range pr.Pkgs {
		for _, file := range p.Files {
			for _, decl := range file.Decls {
				fn, ok := decl.(*ast.FuncDecl)
				if !ok || fn.Body == nil {
					continue
				}
				obj := p.Info.Defs[fn.Name]
				if obj == nil {
					continue
				}
				node := &FuncNode{Key: funcKeyOf(obj), Pkg: p, Decl: fn}
				goLits := goLitRanges(fn.Body)
				var deferred [][2]token.Pos
				ast.Inspect(fn.Body, func(n ast.Node) bool {
					if d, ok := n.(*ast.DeferStmt); ok {
						deferred = append(deferred, [2]token.Pos{d.Pos(), d.End()})
					}
					call, ok := n.(*ast.CallExpr)
					if !ok {
						return true
					}
					callees := resolveCallees(p, call, namedTypes)
					if len(callees) == 0 {
						return true
					}
					node.Calls = append(node.Calls, CallSite{
						Call:     call,
						Callees:  callees,
						InGoLit:  inRanges(goLits, call.Pos()),
						Deferred: inRanges(deferred, call.Pos()),
					})
					return true
				})
				cg.Funcs[node.Key] = node
			}
		}
	}
	return cg
}

// resolveCallees maps a call expression to its possible target keys:
// the single static target for ordinary calls, or every module type
// implementing the interface for interface-method calls. Builtins,
// conversions, and calls through untyped function values resolve to
// nothing (the analyses under-approximate there).
func resolveCallees(p *Package, call *ast.CallExpr, namedTypes []*types.Named) []string {
	obj := calleeObj(p.Info, call)
	fn, ok := obj.(*types.Func)
	if !ok || fn.Pkg() == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return nil
	}
	if recv := sig.Recv(); recv != nil {
		if iface, ok := recv.Type().Underlying().(*types.Interface); ok {
			var out []string
			for _, named := range namedTypes {
				if !types.Implements(named, iface) && !types.Implements(types.NewPointer(named), iface) {
					continue
				}
				m, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), fn.Name())
				if mf, ok := m.(*types.Func); ok {
					out = append(out, funcKeyOf(mf))
				}
			}
			return out
		}
	}
	return []string{funcKeyOf(fn)}
}

// FixpointSets propagates per-function fact sets bottom-up through the
// graph: result[f] = direct[f] ∪ ⋃ result[callee] over f's call sites.
// Sites inside go-launched literals are excluded when skipGoLit is set —
// facts established by a spawned goroutine are not ordered with the
// spawning function. Deferred calls are always included (they do run in
// the caller, just late). Iterates to a fixed point; cycles in the call
// graph simply converge to the union over the SCC.
func (cg *CallGraph) FixpointSets(direct map[string]map[string]bool, skipGoLit bool) map[string]map[string]bool {
	result := make(map[string]map[string]bool, len(cg.Funcs))
	for key := range cg.Funcs {
		set := map[string]bool{}
		for f := range direct[key] {
			set[f] = true
		}
		result[key] = set
	}
	for changed := true; changed; {
		changed = false
		for key, node := range cg.Funcs {
			set := result[key]
			for _, site := range node.Calls {
				if skipGoLit && site.InGoLit {
					continue
				}
				for _, callee := range site.Callees {
					for f := range result[callee] {
						if !set[f] {
							set[f] = true
							changed = true
						}
					}
				}
			}
		}
	}
	return result
}
