package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
)

// storagePkgs are the packages that own durable on-disk state. A Write
// that never meets an fsync rides the page cache: the process reports
// the block committed while a power cut can still erase it, which is
// exactly the torn-commit class the commit protocol exists to prevent.
var storagePkgs = []string{
	"internal/store",
}

// passFsyncdisc flags file write calls (Write/WriteAt/WriteString) in
// the storage package that are not followed, later in the same function,
// by a Sync or Close on the same file handle. A file is anything with a
// Sync method: os.File, or an interface the store writes through that
// *os.File satisfies. "Same handle" matches the
// receiver object (a local variable or a struct field), so syncing one
// file does not excuse an unsynced write to another. Deferred Sync/Close counts
// regardless of source position, since defers run at return.
//
// This is a commit-path discipline, not a proof: a write whose fsync
// lives in a different function is invisible to the check and must be
// allowlisted with its audit trail.
var passFsyncdisc = &Pass{
	Name: "fsyncdisc",
	Doc:  "file writes in the storage package need a later Sync/Close on the same handle",
	Run:  runFsyncdisc,
}

// fileWriteFuncs are the file methods that put bytes in the page cache;
// fileCommitFuncs are the methods that flush or release them.
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
		if name, handle, _ := fileMethod(p, call); fileCommitFuncs[name] && handle != nil {
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
		name, handle, recv := fileMethod(p, call)
		if !fileWriteFuncs[name] || handle == nil {
			return true
		}
		for _, c := range commits {
			if c.handle == handle && c.pos > call.Pos() {
				return true
			}
		}
		out = append(out, p.finding("fsyncdisc", call,
			"%s.%s on %q with no later Sync/Close on the same handle in this function; an unflushed write is not durable — fsync it on the commit path or allowlist the audited exception",
			recv, name, handle.Name()))
		return true
	})
	return out
}

// fileMethod reports the method name, receiver handle and receiver type
// name ("os.File") when call is a method call on a file (a value with a
// Sync method) whose receiver is a plain variable or a struct field;
// ("", nil, "") otherwise. Matching the
// receiver object rather than its rendered text keeps `d.logF` in two
// statements the same handle while `d.logF` and `f` stay distinct.
func fileMethod(p *Package, call *ast.CallExpr) (string, *types.Var, string) {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return "", nil, ""
	}
	t := p.Info.TypeOf(sel.X)
	if t == nil {
		return "", nil, ""
	}
	if sync, _, _ := types.LookupFieldOrMethod(t, true, nil, "Sync"); sync == nil {
		return "", nil, ""
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	var handle *types.Var
	switch recv := ast.Unparen(sel.X).(type) {
	case *ast.Ident:
		handle = varObj(p.Info, recv)
	case *ast.SelectorExpr:
		handle = varObj(p.Info, recv.Sel)
	}
	return sel.Sel.Name, handle, types.TypeString(t, (*types.Package).Name)
}
