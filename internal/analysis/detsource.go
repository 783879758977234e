package analysis

import (
	"go/ast"
	"go/types"
	"strconv"
)

// consensusPkgs are the packages whose outputs must be bit-identical on
// every node: anything hashed, signed, settled or gossiped. PR 1/PR 2
// made their hot paths fast; this pass keeps them deterministic.
var consensusPkgs = []string{
	"internal/chain",
	"internal/state",
	"internal/contract",
	"internal/types",
	"internal/rlp",
	"internal/critbit",
}

// passDetsource forbids sources of cross-node divergence in
// consensus-critical packages:
//
//   - raw time.Now / time.Since — wall-clock must flow through a
//     package-local shim in a file named clock.go (the pow/clock.go
//     convention), so every read is auditable in one place;
//   - math/rand imports — consensus code has no business with
//     nondeterministic (or even seeded) randomness;
//   - map-iteration order leaking into an ordered sink — appending map
//     keys/values to an outer slice or streaming them into a hash/writer
//     inside `for range m` produces a node-dependent order unless the
//     collected slice is sorted afterwards (the sort suppresses the
//     finding).
//
// Audited exceptions go in the committed allowlist, not inline.
var passDetsource = &Pass{
	Name: "detsource",
	Doc:  "no raw wall-clock, math/rand, or map-order-dependent writes in consensus-critical packages",
	Run:  runDetsource,
}

func runDetsource(p *Package) []Finding {
	if !hasPathSuffix(p.ImportPath, consensusPkgs...) {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		for _, spec := range file.Imports {
			path, err := strconv.Unquote(spec.Path.Value)
			if err != nil {
				continue
			}
			if path == "math/rand" || path == "math/rand/v2" {
				out = append(out, p.finding("detsource", spec,
					"import of %s in consensus-critical package; randomness diverges across nodes", path))
			}
		}
		// clock.go is the audited shim file: the one place raw wall-clock
		// reads are allowed, mirroring pow/clock.go.
		clockFile := p.baseFilename(file) == "clock.go"
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			if !clockFile {
				out = append(out, detsourceClockCalls(p, fn.Body)...)
			}
			out = append(out, detsourceMapOrder(p, fn.Body)...)
		}
	}
	return out
}

// detsourceClockCalls flags time.Now and time.Since calls.
func detsourceClockCalls(p *Package, body *ast.BlockStmt) []Finding {
	var out []Finding
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if importedPkgPath(p.Info, sel.X) != "time" {
			return true
		}
		if sel.Sel.Name == "Now" || sel.Sel.Name == "Since" {
			out = append(out, p.finding("detsource", call,
				"raw time.%s in consensus-critical package; route wall-clock through the package clock.go shim", sel.Sel.Name))
		}
		return true
	})
	return out
}

// detsourceMapOrder flags `for range m` over a map whose body feeds an
// order-sensitive sink, unless the collected slice is sorted later in the
// same function.
func detsourceMapOrder(p *Package, body *ast.BlockStmt) []Finding {
	var out []Finding
	ast.Inspect(body, func(n ast.Node) bool {
		rng, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := p.Info.TypeOf(rng.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		for _, sink := range mapOrderSinks(p, rng) {
			if sink.target != nil && sortedAfter(p, body, rng, sink.target) {
				continue
			}
			out = append(out, p.finding("detsource", sink.node,
				"map iteration order flows into %s; collect keys and sort before writing (consensus must be bit-deterministic)", sink.desc))
		}
		return false // sinks inside nested ranges were already collected
	})
	return out
}

// orderSink is one order-sensitive write found inside a map range body.
type orderSink struct {
	node   ast.Node
	desc   string
	target *types.Var // the slice appended to, when that is the sink
}

// streamMethods are writer/hasher methods whose call order is the output
// order.
var streamMethods = map[string]bool{
	"Write": true, "WriteString": true, "WriteByte": true, "WriteRune": true,
}

func mapOrderSinks(p *Package, rng *ast.RangeStmt) []orderSink {
	var sinks []orderSink
	ast.Inspect(rng.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			// x = append(x, ...) where x is declared outside the loop.
			for i, rhs := range n.Rhs {
				call, ok := rhs.(*ast.CallExpr)
				if !ok || len(n.Lhs) <= i {
					continue
				}
				if id, ok := call.Fun.(*ast.Ident); !ok || id.Name != "append" {
					continue
				}
				lhs, ok := n.Lhs[i].(*ast.Ident)
				if !ok {
					continue
				}
				v := varObj(p.Info, lhs)
				if v == nil || v.Pos() >= rng.Pos() {
					continue // loop-local accumulator; order dies with the loop
				}
				sinks = append(sinks, orderSink{node: n, desc: lhs.Name, target: v})
			}
		case *ast.SendStmt:
			sinks = append(sinks, orderSink{node: n, desc: "a channel send"})
		case *ast.CallExpr:
			if sel, ok := n.Fun.(*ast.SelectorExpr); ok && streamMethods[sel.Sel.Name] {
				// Only method calls (hash/writer streams), not package
				// functions that happen to be named Write.
				if _, isMethod := p.Info.Selections[sel]; isMethod {
					sinks = append(sinks, orderSink{node: n, desc: "a stream write (" + sel.Sel.Name + ")"})
				}
			}
		}
		return true
	})
	return sinks
}

// sortedAfter reports whether target is passed to a sort.*/slices.Sort*
// call after the range loop in the same function body — the canonical
// collect-then-sort idiom, which is deterministic.
func sortedAfter(p *Package, body *ast.BlockStmt, rng *ast.RangeStmt, target *types.Var) bool {
	sorted := false
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || sorted || call.Pos() < rng.End() {
			return true
		}
		pkg := calleePkgPath(p.Info, call)
		if pkg != "sort" && pkg != "slices" {
			return true
		}
		for _, arg := range call.Args {
			mentions := false
			ast.Inspect(arg, func(m ast.Node) bool {
				if id, ok := m.(*ast.Ident); ok && varObj(p.Info, id) == target {
					mentions = true
				}
				return !mentions
			})
			if mentions {
				sorted = true
				break
			}
		}
		return true
	})
	return sorted
}
