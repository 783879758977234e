package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// storagePkgs are the packages that own durable on-disk state. A Write
// that never meets an fsync rides the page cache: the process reports
// the block committed while a power cut can still erase it, which is
// exactly the torn-commit class the WAL protocol exists to prevent.
var storagePkgs = []string{
	"internal/store",
}

// passFsyncdisc flags os.File write calls (Write/WriteAt/WriteString) in
// the storage package that are not followed, later in the same function,
// by a Sync or Close on the same file handle. "Same handle" matches the
// receiver object (a local variable or a struct field), so syncing the
// WAL does not excuse an unsynced log write. Deferred Sync/Close counts
// regardless of source position, since defers run at return.
//
// This is a commit-path discipline, not a proof: a write whose fsync
// lives in a different function is invisible to the check and must be
// allowlisted with its audit trail.
var passFsyncdisc = &Pass{
	Name: "fsyncdisc",
	Doc:  "os.File writes in the storage package need a later Sync/Close on the same handle",
	Run:  runFsyncdisc,
}

// fileWriteFuncs are the os.File methods that put bytes in the page
// cache; fileCommitFuncs are the methods that flush or release them.
var (
	fileWriteFuncs  = map[string]bool{"Write": true, "WriteAt": true, "WriteString": true}
	fileCommitFuncs = map[string]bool{"Sync": true, "Close": true}
)

func runFsyncdisc(p *Package) []Finding {
	if !hasPathSuffix(p.ImportPath, storagePkgs...) {
		return nil
	}
	var out []Finding
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			out = append(out, fsyncdiscFunc(p, fn.Body)...)
		}
	}
	return out
}

// commitPoint is one Sync/Close call: which handle, and the position
// after which writes are considered flushed. Deferred commits cover the
// whole function body.
type commitPoint struct {
	handle *types.Var
	pos    token.Pos
}

func fsyncdiscFunc(p *Package, body *ast.BlockStmt) []Finding {
	var commits []commitPoint
	ast.Inspect(body, func(n ast.Node) bool {
		var call *ast.CallExpr
		pos := token.Pos(0)
		switch stmt := n.(type) {
		case *ast.DeferStmt:
			// A deferred Sync/Close runs at return, after every write in
			// the function regardless of where the defer is written.
			call, pos = stmt.Call, body.End()
		case *ast.CallExpr:
			call, pos = stmt, stmt.Pos()
		default:
			return true
		}
		if name, handle := osFileMethod(p, call); fileCommitFuncs[name] && handle != nil {
			commits = append(commits, commitPoint{handle: handle, pos: pos})
		}
		return true
	})

	var out []Finding
	ast.Inspect(body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		name, handle := osFileMethod(p, call)
		if !fileWriteFuncs[name] || handle == nil {
			return true
		}
		for _, c := range commits {
			if c.handle == handle && c.pos > call.Pos() {
				return true
			}
		}
		out = append(out, p.finding("fsyncdisc", call,
			"os.File.%s on %q with no later Sync/Close on the same handle in this function; an unflushed write is not durable — fsync it on the commit path or allowlist the audited exception", name, handle.Name()))
		return true
	})
	return out
}

// osFileMethod reports the method name and receiver handle when call is
// a method call on an *os.File (or os.File) value whose receiver is a
// plain variable or a struct field; ("", nil) otherwise. Matching the
// receiver object rather than its rendered text keeps `d.logF` in two
// statements the same handle while `d.logF` and `d.walF` stay distinct.
func osFileMethod(p *Package, call *ast.CallExpr) (string, *types.Var) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil
	}
	if !isOSFile(p.Info.TypeOf(sel.X)) {
		return "", nil
	}
	var handle *types.Var
	switch recv := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		handle = varObj(p.Info, recv)
	case *ast.SelectorExpr:
		handle = varObj(p.Info, recv.Sel)
	}
	return sel.Sel.Name, handle
}

// isOSFile reports whether t is os.File or *os.File.
func isOSFile(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Name() == "File" && obj.Pkg() != nil && obj.Pkg().Path() == "os"
}
