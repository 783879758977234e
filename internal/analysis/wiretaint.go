package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"reflect"
	"sort"
	"strings"
)

// wiretaintSeedPkgs decode attacker-controlled bytes into integers: the
// TCP framing layer, the p2p snap-sync/range codecs, RLP, and the rpc
// cursor tokens (client-minted until the MAC check passes).
var wiretaintSeedPkgs = []string{
	"internal/wire",
	"internal/p2p",
	"internal/rlp",
	"internal/rpc",
}

// passWiretaint tracks wire-decoded integers by dataflow: an integer is
// tainted when it comes out of a binary.BigEndian /
// LittleEndian decode in a wire-facing package, or flows from one —
// through assignments, struct fields, function results, and call
// arguments. Tainted values must pass a comparison against a bound
// (a named constant, literal, or len/cap of held data) that dominates
// the sink — make sizes, slice/array indexing, slice bounds, io.CopyN
// counts — in the control-flow graph.
//
// The tracking is interprocedural in all three directions the PR 9
// manifest-chunk bug class needs:
//
//   - a decoder returning an unvalidated integer taints its callers
//     (field-sensitively: a struct result with one validated and one raw
//     field only propagates the raw one);
//   - a helper that bounds-checks its parameter is a sanitizer, so
//     `if !okLen(n) { return }` in the caller clears n;
//   - passing a tainted argument taints the callee's parameter, so the
//     allocation inside a helper is still caught.
var passWiretaint = &Pass{
	Name: "wiretaint",
	Doc:  "wire-decoded integers need a dominating bound check before sizing allocations, indexing, or copies",
	Run:  runWiretaint,
}

func runWiretaint(p *Package) []Finding {
	if !strings.Contains(p.ImportPath, "internal/") {
		return nil
	}
	byPkg := p.Prog.memoize("wiretaint", func() any {
		return wiretaintProgram(p.Prog)
	}).(map[*Package][]Finding)
	return byPkg[p]
}

// wtSummary is one function's externally visible taint behaviour.
type wtSummary struct {
	// results maps result index -> tainted paths: "" for the value
	// itself, ".Field" (possibly nested) for struct results.
	results map[int]map[string]bool
	// sanitizes marks parameters the body compares against a bound:
	// calling the function counts as a guard for the argument.
	sanitizes map[int]bool
}

type wtAnalyzer struct {
	cg        *CallGraph
	cfgs      map[string]*CFG
	summaries map[string]*wtSummary
	// paramTaint marks parameters some call site passes a tainted,
	// unguarded argument into.
	paramTaint map[string]map[int]bool
}

func wiretaintProgram(pr *Program) map[*Package][]Finding {
	cg := pr.CallGraph()
	a := &wtAnalyzer{
		cg:         cg,
		cfgs:       map[string]*CFG{},
		summaries:  map[string]*wtSummary{},
		paramTaint: map[string]map[int]bool{},
	}
	var keys []string
	for key, node := range cg.Funcs {
		keys = append(keys, key)
		a.cfgs[key] = BuildCFG(node.Decl.Body)
		a.summaries[key] = &wtSummary{results: map[int]map[string]bool{}, sanitizes: map[int]bool{}}
		a.paramTaint[key] = map[int]bool{}
	}
	sort.Strings(keys)

	// Summaries feed each other (a sanitizer two calls deep, a tainted
	// result re-returned), so iterate to a bounded fixpoint. Guards can
	// retract taint between rounds, so this is not strictly monotone; the
	// cap keeps any oscillation finite and the last state is still a
	// sound-enough lint approximation.
	for round := 0; round < 8; round++ {
		changed := false
		for _, key := range keys {
			sum, argTaint := a.analyzeFunc(cg.Funcs[key], nil)
			if !reflect.DeepEqual(sum, a.summaries[key]) {
				a.summaries[key] = sum
				changed = true
			}
			for callee, params := range argTaint {
				dst := a.paramTaint[callee]
				if dst == nil {
					continue // out-of-module callee
				}
				for i := range params {
					if !dst[i] {
						dst[i] = true
						changed = true
					}
				}
			}
		}
		if !changed {
			break
		}
	}

	findings := map[*Package][]Finding{}
	for _, key := range keys {
		node := cg.Funcs[key]
		a.analyzeFunc(node, func(f Finding) {
			findings[node.Pkg] = append(findings[node.Pkg], f)
		})
	}
	return findings
}

// wtGuard is one dominance-anchored bound check.
type wtGuard struct {
	pos   token.Pos
	atoms map[string]bool
}

// analyzeFunc runs the lexical taint walk over one function body,
// returning its summary and the tainted arguments it passes onward.
// With report set it also emits sink findings (the final phase).
func (a *wtAnalyzer) analyzeFunc(node *FuncNode, report func(Finding)) (*wtSummary, map[string]map[int]bool) {
	p := node.Pkg
	c := a.cfgs[node.Key]
	guards, cmpAtoms := a.collectGuards(node)

	taint := map[string]bool{}
	params := paramNames(node.Decl)
	for i := range a.paramTaint[node.Key] {
		if i < len(params) && params[i] != "" && params[i] != "_" {
			taint[params[i]] = true
		}
	}

	sum := &wtSummary{results: map[int]map[string]bool{}, sanitizes: map[int]bool{}}
	for i, name := range params {
		if name != "" && name != "_" && cmpAtoms[name] {
			sum.sanitizes[i] = true
		}
	}
	argTaint := map[string]map[int]bool{}

	unguarded := func(text string, pos token.Pos) bool {
		return !guardedAt(c, guards, text, pos)
	}
	// taintedTexts returns e's tainted atom texts; withGuards filters the
	// ones a dominating bound check already cleared.
	taintedTexts := func(e ast.Expr, withGuards bool) []string {
		var out []string
		seen := map[string]bool{}
		for _, t := range wtAtoms(p, e) {
			if seen[t] || !textTainted(taint, t) {
				continue
			}
			if withGuards && !unguarded(t, e.Pos()) {
				continue
			}
			seen[t] = true
			out = append(out, t)
		}
		sort.Strings(out)
		return out
	}
	sink := func(arg ast.Expr, what string) {
		if report == nil || arg == nil {
			return
		}
		if tv, ok := p.Info.Types[arg]; ok && tv.Value != nil {
			return
		}
		hot := taintedTexts(arg, true)
		seeded := a.seedInExpr(p, node, arg)
		if len(hot) == 0 && !seeded {
			return
		}
		src := strings.Join(hot, ", ")
		if src == "" {
			src = "a value decoded in place"
		}
		report(p.finding("wiretaint", arg,
			"%s depends on wire-decoded %s with no dominating bound check; compare it against a named bound constant first", what, src))
	}

	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			a.assign(p, node, n, taint)

		case *ast.ReturnStmt:
			for i, res := range n.Results {
				e := ast.Unparen(res)
				if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.AND {
					e = ast.Unparen(u.X)
				}
				if at := atomText(p, e); at != "" {
					if textTainted(taint, at) && unguarded(at, n.Pos()) {
						pathsOf(sum.results, i)[""] = true
					}
					for k := range taint {
						if strings.HasPrefix(k, at+".") && unguarded(k, n.Pos()) {
							pathsOf(sum.results, i)[k[len(at):]] = true
						}
					}
				} else if len(taintedTexts(e, true)) > 0 || a.seedInExpr(p, node, e) {
					pathsOf(sum.results, i)[""] = true
				}
			}

		case *ast.CallExpr:
			// Builtin make sized by taint.
			if id, ok := n.Fun.(*ast.Ident); ok && id.Name == "make" && len(n.Args) >= 2 {
				if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
					if t := p.Info.TypeOf(n.Args[0]); t != nil {
						if _, isSlice := t.Underlying().(*types.Slice); isSlice {
							for _, sz := range n.Args[1:] {
								sink(sz, "allocation size")
							}
						}
					}
					return true
				}
			}
			if obj := calleeObj(p.Info, n); obj != nil && obj.Pkg() != nil &&
				obj.Pkg().Path() == "io" && obj.Name() == "CopyN" && len(n.Args) == 3 {
				sink(n.Args[2], "copy length")
			}
			// Export taint into callee parameters.
			if site := node.siteFor(n); site != nil {
				for i, arg := range n.Args {
					if len(taintedTexts(arg, true)) == 0 && !a.seedInExpr(p, node, arg) {
						continue
					}
					for _, callee := range site.Callees {
						if argTaint[callee] == nil {
							argTaint[callee] = map[int]bool{}
						}
						argTaint[callee][i] = true
					}
				}
			}

		case *ast.IndexExpr:
			if xt := p.Info.TypeOf(n.X); xt != nil && indexableForTaint(xt) {
				sink(n.Index, "index")
			}

		case *ast.SliceExpr:
			for _, bound := range []ast.Expr{n.Low, n.High, n.Max} {
				sink(bound, "slice bound")
			}
		}
		return true
	})
	return sum, argTaint
}

// assign updates the taint set for one assignment statement: strong
// kill on overwrite, taint on tainted right-hand sides, field-path
// copy when a whole tainted-fielded value is copied, and summary-driven
// taint for multi-value calls.
func (a *wtAnalyzer) assign(p *Package, node *FuncNode, st *ast.AssignStmt, taint map[string]bool) {
	if len(st.Rhs) == 1 && len(st.Lhs) > 1 {
		results := map[int]map[string]bool{}
		if call, ok := ast.Unparen(st.Rhs[0]).(*ast.CallExpr); ok {
			if site := node.siteFor(call); site != nil {
				for _, callee := range site.Callees {
					if s := a.summaries[callee]; s != nil {
						for i, paths := range s.results {
							for pth := range paths {
								pathsOf(results, i)[pth] = true
							}
						}
					}
				}
			}
			if a.isSeedCall(p, call) {
				pathsOf(results, 0)[""] = true
			}
		}
		for i, lhs := range st.Lhs {
			t := atomText(p, lhs)
			if t == "" {
				continue
			}
			killTaint(taint, t)
			for pth := range results[i] {
				taint[t+pth] = true
			}
		}
		return
	}
	for i, lhs := range st.Lhs {
		if i >= len(st.Rhs) {
			break
		}
		t := atomText(p, lhs)
		if t == "" {
			continue
		}
		rhs := ast.Unparen(st.Rhs[i])
		tainted := a.exprTainted(p, node, rhs, taint)
		if st.Tok != token.ASSIGN && st.Tok != token.DEFINE {
			// op-assign (off += n): the old value feeds the new one.
			tainted = tainted || textTainted(taint, t)
		}
		rhsAtom := atomText(p, rhs)
		killTaint(taint, t)
		if tainted {
			taint[t] = true
		}
		if rhsAtom != "" {
			for k := range taint {
				if strings.HasPrefix(k, rhsAtom+".") {
					taint[t+k[len(rhsAtom):]] = true
				}
			}
		}
	}
}

// collectGuards finds the function's bound checks: comparisons against
// constants or len/cap inside if/for conditions (dominance-anchored),
// plus calls passing an argument into a sanitizing parameter. cmpAtoms
// additionally includes comparisons anywhere (a `return n <= Max` body
// sanitizes n without an if).
func (a *wtAnalyzer) collectGuards(node *FuncNode) ([]wtGuard, map[string]bool) {
	p := node.Pkg
	var guards []wtGuard
	cmpAtoms := map[string]bool{}

	cmpGuard := func(root ast.Expr, anchor token.Pos, domGuard bool) {
		ast.Inspect(root, func(n ast.Node) bool {
			bin, ok := n.(*ast.BinaryExpr)
			if !ok {
				return true
			}
			switch bin.Op {
			case token.LSS, token.GTR, token.LEQ, token.GEQ, token.EQL, token.NEQ:
			default:
				return true
			}
			for _, pair := range [2][2]ast.Expr{{bin.X, bin.Y}, {bin.Y, bin.X}} {
				val, bound := pair[0], pair[1]
				if !isBoundExpr(p, bound) {
					continue
				}
				atoms := map[string]bool{}
				for _, t := range wtAtoms(p, val) {
					atoms[t] = true
					cmpAtoms[t] = true
				}
				if domGuard && len(atoms) > 0 {
					guards = append(guards, wtGuard{pos: anchor, atoms: atoms})
				}
			}
			return true
		})
	}

	ast.Inspect(node.Decl.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IfStmt:
			cmpGuard(n.Cond, n.Cond.Pos(), true)
		case *ast.ForStmt:
			if n.Cond != nil {
				cmpGuard(n.Cond, n.Cond.Pos(), true)
			}
		case *ast.BinaryExpr:
			cmpGuard(n, n.Pos(), false) // sanitizer detection only
		case *ast.CallExpr:
			site := node.siteFor(n)
			if site == nil {
				return true
			}
			for _, callee := range site.Callees {
				s := a.summaries[callee]
				if s == nil {
					continue
				}
				for i := range s.sanitizes {
					if i >= len(n.Args) {
						continue
					}
					atoms := map[string]bool{}
					for _, t := range wtAtoms(p, n.Args[i]) {
						atoms[t] = true
						cmpAtoms[t] = true
					}
					if len(atoms) > 0 {
						guards = append(guards, wtGuard{pos: n.Pos(), atoms: atoms})
					}
				}
			}
		}
		return true
	})
	return guards, cmpAtoms
}

// exprTainted reports whether any atom of e carries taint or e embeds a
// fresh decode.
func (a *wtAnalyzer) exprTainted(p *Package, node *FuncNode, e ast.Expr, taint map[string]bool) bool {
	for _, t := range wtAtoms(p, e) {
		if textTainted(taint, t) {
			return true
		}
	}
	return a.seedInExpr(p, node, e)
}

// seedInExpr reports whether e contains a taint source used in place: a
// wire-package endian decode, or a call whose summary taints result 0.
func (a *wtAnalyzer) seedInExpr(p *Package, node *FuncNode, e ast.Expr) bool {
	if e == nil {
		return false
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if a.isSeedCall(p, call) {
			found = true
			return false
		}
		if site := node.siteFor(call); site != nil {
			for _, callee := range site.Callees {
				if s := a.summaries[callee]; s != nil && s.results[0][""] {
					found = true
					return false
				}
			}
		}
		return true
	})
	return found
}

// isSeedCall recognises binary.BigEndian/LittleEndian.UintXX in a
// wire-facing package: the moment attacker bytes become an integer.
func (a *wtAnalyzer) isSeedCall(p *Package, call *ast.CallExpr) bool {
	if !hasPathSuffix(p.ImportPath, wiretaintSeedPkgs...) {
		return false
	}
	obj := calleeObj(p.Info, call)
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "encoding/binary" {
		return false
	}
	return strings.HasPrefix(obj.Name(), "Uint")
}

// guardedAt reports whether a bound check on text dominates pos.
func guardedAt(c *CFG, guards []wtGuard, text string, pos token.Pos) bool {
	blk := c.BlockAt(pos)
	if blk == nil {
		return false
	}
	for _, g := range guards {
		if !g.atoms[text] {
			continue
		}
		gb := c.BlockAt(g.pos)
		if gb == nil {
			continue
		}
		if gb == blk {
			if g.pos < pos {
				return true
			}
			continue
		}
		if c.Dominates(gb, blk) {
			return true
		}
	}
	return false
}

// textTainted applies the field-extension rule: "m" tainted makes
// "m.Chunks" tainted, but not the reverse.
func textTainted(taint map[string]bool, text string) bool {
	if taint[text] {
		return true
	}
	for k := range taint {
		if strings.HasPrefix(text, k+".") {
			return true
		}
	}
	return false
}

// killTaint removes text and every field path under it (strong kill).
func killTaint(taint map[string]bool, text string) {
	delete(taint, text)
	for k := range taint {
		if strings.HasPrefix(k, text+".") {
			delete(taint, k)
		}
	}
}

// wtAtoms collects the variable-backed atoms of e: plain identifiers
// and selector chains, rendered as source text. Closure bodies are a
// different frame and are skipped.
func wtAtoms(p *Package, e ast.Expr) []string {
	if e == nil {
		return nil
	}
	var out []string
	ast.Inspect(e, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.CallExpr:
			// A call's value is its result, not its arguments: len(x) is a
			// safe measurement, f(x) is whatever f's summary says. Only
			// conversions pass the operand's taint through.
			if tv, ok := p.Info.Types[n.Fun]; ok && tv.IsType() {
				return true
			}
			return false
		case *ast.SelectorExpr:
			if v, ok := p.Info.Uses[n.Sel].(*types.Var); ok && v != nil {
				out = append(out, exprText(p.Fset, n))
			}
		case *ast.Ident:
			if v := varObj(p.Info, n); v != nil {
				out = append(out, n.Name)
			}
		}
		return true
	})
	return out
}

// atomText renders e when it is an assignable atom (identifier or
// selector chain), else "".
func atomText(p *Package, e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if e.Name == "_" {
			return ""
		}
		if v := varObj(p.Info, e); v != nil {
			return e.Name
		}
	case *ast.SelectorExpr:
		if v, ok := p.Info.Uses[e.Sel].(*types.Var); ok && v != nil {
			return exprText(p.Fset, e)
		}
	}
	return ""
}

// isBoundExpr reports whether e can serve as the bound side of a guard:
// a constant-valued expression (literals, named constants, arithmetic
// over them) or anything measuring data already held (len/cap).
func isBoundExpr(p *Package, e ast.Expr) bool {
	if tv, ok := p.Info.Types[e]; ok && tv.Value != nil {
		return true
	}
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if id, ok := call.Fun.(*ast.Ident); ok && (id.Name == "len" || id.Name == "cap") {
			if _, isBuiltin := p.Info.Uses[id].(*types.Builtin); isBuiltin {
				found = true
				return false
			}
		}
		return true
	})
	return found
}

// indexableForTaint limits index sinks to sequential containers where
// an oversized index panics: slices, arrays, strings. Map keys and
// generic instantiations are not sinks.
func indexableForTaint(t types.Type) bool {
	switch u := t.Underlying().(type) {
	case *types.Slice, *types.Array:
		return true
	case *types.Pointer:
		_, isArr := u.Elem().Underlying().(*types.Array)
		return isArr
	case *types.Basic:
		return u.Info()&types.IsString != 0
	}
	return false
}

// pathsOf returns (allocating) the path set for result index i.
func pathsOf(m map[int]map[string]bool, i int) map[string]bool {
	if m[i] == nil {
		m[i] = map[string]bool{}
	}
	return m[i]
}

// paramNames flattens a function declaration's parameter names.
func paramNames(decl *ast.FuncDecl) []string {
	var out []string
	if decl.Type.Params == nil {
		return out
	}
	for _, field := range decl.Type.Params.List {
		if len(field.Names) == 0 {
			out = append(out, "")
			continue
		}
		for _, name := range field.Names {
			out = append(out, name.Name)
		}
	}
	return out
}
