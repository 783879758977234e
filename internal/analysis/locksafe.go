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

// rpcChainAllowed lists the *chain.Chain methods internal/rpc may call:
// the two that never touch the chain mutex. Everything else either takes
// c.mu outright or returns data guarded by it, and the whole point of the
// ReadView redesign is that no handler ever does that — one slow import
// must not be able to stall a million polling consumers (or vice versa).
var rpcChainAllowed = map[string]bool{
	"CurrentView":  true, // one atomic pointer load
	"Config":       true, // immutable after New
	"StorageStats": true, // c.store immutable after New; Disk.Stats has its own mutex
}

// passLocksafe flags expensive or non-deterministic work lexically
// inside a mu.Lock()…mu.Unlock() region: direct calls into
// internal/crypto/keccak or internal/crypto/secp256k1, blocking batch
// recovery (types.RecoverSenders), per-transaction
// Sender()/ValidateBasic() (ECDSA on a cache miss), and wall-clock
// reads — time.Now/time.Since or the package's clock.go shim functions.
// Crypto under the lock undoes the stage-1/stage-2 split; clock reads
// under the lock inflate hold time and, worse, would let scheduling
// jitter into anything the critical section computes (block execution
// must stay a pure function of its inputs).
// `defer mu.Unlock()` keeps the region open to the end of the function;
// goroutine bodies launched inside the region (`go func(){…}()`) run
// outside the lock and are skipped.
//
// In internal/rpc the pass enforces the inverse discipline: read
// handlers must serve from a pinned chain.ReadView, so any *chain.Chain
// method call other than CurrentView/Config — every other method
// acquires the chain mutex — is flagged. Calls laundered through an
// interface would be invisible to static receiver typing; handlers take
// the concrete *chain.ReadView so there is none to launder through.
var passLocksafe = &Pass{
	Name: "locksafe",
	Doc:  "no crypto or clock reads inside chain/txpool critical sections; no mutex-taking chain calls in rpc handlers",
	Run:  runLocksafe,
}

// lockEvent is one lexically ordered event inside a function body.
type lockEvent struct {
	pos  token.Pos
	kind int // evLock, evUnlock, evCrypto, evClock
	desc string
}

const (
	evLock = iota
	evUnlock
	evCrypto
	evClock
)

func runLocksafe(p *Package) []Finding {
	if hasPathSuffix(p.ImportPath, "internal/rpc") {
		return locksafeRPC(p)
	}
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
			} else if desc := clockCallee(p, n); desc != "" {
				events = append(events, lockEvent{pos: n.Pos(), kind: evClock, desc: desc})
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
		case evClock:
			if depth > 0 {
				out = append(out, Finding{
					Pos:  p.Fset.Position(ev.pos),
					Pass: "locksafe",
					Msg:  "call to " + ev.desc + " inside a mutex critical section; read the wall clock outside the lock",
				})
			}
		}
	}
	return out
}

// locksafeRPC flags direct *chain.Chain method calls in internal/rpc
// outside the lock-free allowlist.
func locksafeRPC(p *Package) []Finding {
	var out []Finding
	for _, file := range p.Files {
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			name, ok := chainMethodCallee(p.Info, call)
			if !ok || rpcChainAllowed[name] {
				return true
			}
			out = append(out, Finding{
				Pos:  p.Fset.Position(call.Pos()),
				Pass: "locksafe",
				Msg: "call to (*chain.Chain)." + name + " in internal/rpc; " +
					"serve reads from a pinned ReadView (CurrentView), not the chain mutex",
			})
			return true
		})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Pos.Filename != out[j].Pos.Filename {
			return out[i].Pos.Filename < out[j].Pos.Filename
		}
		return out[i].Pos.Line < out[j].Pos.Line
	})
	return out
}

// chainMethodCallee reports the method name when call invokes a method
// whose receiver is chain.Chain (by value or pointer).
func chainMethodCallee(info *types.Info, call *ast.CallExpr) (string, bool) {
	obj := calleeObj(info, call)
	if obj == nil || obj.Pkg() == nil || !strings.HasSuffix(obj.Pkg().Path(), "internal/chain") {
		return "", false
	}
	sig, ok := obj.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return "", false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok || named.Obj().Name() != "Chain" {
		return "", false
	}
	return obj.Name(), true
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

// clockCallee returns a display name when call reads the wall clock —
// time.Now/time.Since directly, or any function declared in the
// package's clock.go shim file (the detsource-audited home for raw
// clock reads) — else "".
func clockCallee(p *Package, call *ast.CallExpr) string {
	obj := calleeObj(p.Info, call)
	if obj == nil || obj.Pkg() == nil {
		return ""
	}
	if obj.Pkg().Path() == "time" && (obj.Name() == "Now" || obj.Name() == "Since") {
		return "time." + obj.Name()
	}
	if obj.Pkg().Path() == p.ImportPath &&
		strings.HasSuffix(p.Fset.Position(obj.Pos()).Filename, "/clock.go") {
		return obj.Name() + " (clock.go shim)"
	}
	return ""
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
