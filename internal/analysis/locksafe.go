package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// lockedPkgs are the packages whose mutexes guard the import/admission
// hot paths. PR 2's whole point was hoisting ECDSA recovery and keccak
// hashing out of those critical sections (stage 1 lock-free, stage 2
// under the mutex); this pass keeps crypto from creeping back in.
var lockedPkgs = []string{
	"internal/chain",
	"internal/txpool",
}

// passLocksafe flags expensive crypto lexically inside a
// mu.Lock()…mu.Unlock() region: direct calls into
// internal/crypto/keccak or internal/crypto/secp256k1, blocking batch
// recovery (types.RecoverSenders), and per-transaction
// Sender()/ValidateBasic() (ECDSA on a cache miss). Crypto under the
// lock undoes the stage-1/stage-2 split.
// `defer mu.Unlock()` keeps the region open to the end of the function;
// goroutine bodies launched inside the region (`go func(){…}()`) run
// outside the lock and are skipped.
var passLocksafe = &Pass{
	Name: "locksafe",
	Doc:  "no crypto inside chain/txpool mutex critical sections",
	Run:  runLocksafe,
}

// lockEvent is one lexically ordered event inside a function body.
type lockEvent struct {
	pos  token.Pos
	kind int // evLock, evUnlock, evCrypto
	desc string
}

const (
	evLock = iota
	evUnlock
	evCrypto
)

func runLocksafe(p *Package) []Finding {
	if !hasPathSuffix(p.ImportPath, lockedPkgs...) {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			out = append(out, locksafeFunc(p, fn.Body)...)
		}
	}
	return out
}

func locksafeFunc(p *Package, body *ast.BlockStmt) []Finding {
	// Goroutine bodies escape the lexical critical section: they run
	// after the spawning statement returns, typically lock-free.
	skip := map[*ast.FuncLit]bool{}
	ast.Inspect(body, func(n ast.Node) bool {
		if g, ok := n.(*ast.GoStmt); ok {
			if lit, ok := g.Call.Fun.(*ast.FuncLit); ok {
				skip[lit] = true
			}
		}
		return true
	})

	var events []lockEvent
	var deferred []*ast.CallExpr
	ast.Inspect(body, func(n ast.Node) bool {
		if lit, ok := n.(*ast.FuncLit); ok && skip[lit] {
			return false
		}
		switch n := n.(type) {
		case *ast.DeferStmt:
			deferred = append(deferred, n.Call)
		case *ast.CallExpr:
			if ev, ok := classifyLockCall(p, n); ok {
				if ev.kind == evUnlock && isDeferredCall(deferred, n) {
					// A deferred Unlock releases at return: the region
					// stays lexically locked to the end of the function.
					return true
				}
				events = append(events, ev)
				return true
			}
			if desc := cryptoCallee(p.Info, n); desc != "" {
				events = append(events, lockEvent{pos: n.Pos(), kind: evCrypto, desc: desc})
			}
		}
		return true
	})

	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })
	var out []Finding
	depth := 0
	for _, ev := range events {
		switch ev.kind {
		case evLock:
			depth++
		case evUnlock:
			if depth > 0 {
				depth--
			}
		case evCrypto:
			if depth > 0 {
				out = append(out, Finding{
					Pos:  p.Fset.Position(ev.pos),
					Pass: "locksafe",
					Msg:  "call to " + ev.desc + " inside a mutex critical section; hoist crypto out of the lock (stage-1/stage-2 split)",
				})
			}
		}
	}
	return out
}

func isDeferredCall(deferred []*ast.CallExpr, call *ast.CallExpr) bool {
	for _, d := range deferred {
		if d == call {
			return true
		}
	}
	return false
}

// classifyLockCall recognises Lock/RLock/Unlock/RUnlock on a
// sync.Mutex/RWMutex-typed receiver.
func classifyLockCall(p *Package, call *ast.CallExpr) (lockEvent, bool) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return lockEvent{}, false
	}
	var kind int
	switch sel.Sel.Name {
	case "Lock", "RLock":
		kind = evLock
	case "Unlock", "RUnlock":
		kind = evUnlock
	default:
		return lockEvent{}, false
	}
	if !isMutexType(p.Info.TypeOf(sel.X)) {
		return lockEvent{}, false
	}
	return lockEvent{pos: call.Pos(), kind: kind}, true
}

func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	if named.Obj().Pkg().Path() != "sync" {
		return false
	}
	name := named.Obj().Name()
	return name == "Mutex" || name == "RWMutex"
}

// cryptoCallee returns a display name when call invokes expensive crypto,
// else "".
func cryptoCallee(info *types.Info, call *ast.CallExpr) string {
	obj := calleeObj(info, call)
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	path := obj.Pkg().Path()
	switch {
	case strings.HasSuffix(path, "internal/crypto/keccak"):
		return "keccak." + obj.Name()
	case strings.HasSuffix(path, "internal/crypto/secp256k1"):
		return "secp256k1." + obj.Name()
	case strings.HasSuffix(path, "internal/types"):
		switch obj.Name() {
		case "RecoverSenders":
			return "types.RecoverSenders"
		case "Sender", "ValidateBasic":
			// Methods: ECDSA recovery on a sender-cache miss.
			if sig, ok := obj.Type().(*types.Signature); ok && sig.Recv() != nil {
				return "(*types.Transaction)." + obj.Name()
			}
		}
	}
	return ""
}
