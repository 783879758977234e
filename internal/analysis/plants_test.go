package analysis

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"sync"
	"testing"
)

// A plant is one violation written into a copy of a real package: the
// evidence that a pass catches its class in the code it guards, not only
// in a fixture written for it. Each row copies the package's non-test
// files, applies its edits, loads the copy under the package's real
// import path, swaps it into the whole-module load, and runs every pass
// over it. The row's own pass must yield exactly the findings in want.
// Findings of other passes on the same plant are overlap: the row names
// those passes, so an overlap that appears or goes away fails the test.

// plantEdit replaces the one occurrence of old in file with new; an
// empty old appends new to the file.
type plantEdit struct{ file, old, new string }

// plantWant is one finding a plant must produce: in file, on the line
// containing at (which must occur once in the planted file), with a
// message matching msg.
type plantWant struct{ file, at, msg string }

type plantRow struct {
	pass    string
	pkg     string // module-relative package directory
	edits   []plantEdit
	want    []plantWant
	overlap []string // the other passes the plant trips, sorted
}

var plantRows = []plantRow{
	{
		pass: "detsource",
		pkg:  "internal/chain",
		edits: []plantEdit{
			{"executor.go", "import (\n", "import (\n\t\"time\"\n"},
			{"executor.go", "\tex := &executor{cfg: cfg,", "\t_ = time.Now().UnixMilli()\n\tex := &executor{cfg: cfg,"},
		},
		want: []plantWant{{"executor.go", "_ = time.Now().UnixMilli()", `raw time\.Now in consensus-critical package`}},
	},
	{
		// The bug class senterr was written for: a wrapped ErrKnownBlock
		// no longer equals the sentinel.
		pass:  "senterr",
		pkg:   "internal/node",
		edits: []plantEdit{{"provider.go", "if errors.Is(err, chain.ErrKnownBlock) {", "if err == chain.ErrKnownBlock {"}},
		want:  []plantWant{{"provider.go", "if err == chain.ErrKnownBlock {", `sentinel error chain\.ErrKnownBlock compared with ==`}},
	},
	{
		// locksafe is lexical: the plant sits between c.mu.Lock and
		// c.mu.Unlock in one body. The same call inside insertRunLocked,
		// which runs under the lock its caller took, is not seen.
		pass: "locksafe",
		pkg:  "internal/chain",
		edits: []plantEdit{{"chain.go", "\t\t\tc.mu.Lock()\n\t\t\tt1 := now()\n",
			"\t\t\tc.mu.Lock()\n\t\t\ttypes.RecoverSenders(blocks[from].Block.Txs)\n\t\t\tt1 := now()\n"}},
		want: []plantWant{{"chain.go", "types.RecoverSenders(blocks[from].Block.Txs)", `call to types\.RecoverSenders inside a mutex critical section`}},
	},
	{
		// HandleMessages asks p.sync.active() (syncer.mu) under
		// ProviderNode.mu; the plant takes ProviderNode.mu (through
		// OrphanCount) under syncer.mu, closing the cycle. Each edge of a
		// cycle is a finding.
		pass: "lockorder",
		pkg:  "internal/node",
		edits: []plantEdit{{"sync.go", "", `
func (p *ProviderNode) plantedSyncOrphans() int {
	p.sync.mu.Lock()
	defer p.sync.mu.Unlock()
	return p.OrphanCount()
}
`}},
		want: []plantWant{
			{"sync.go", "return p.OrphanCount()", `acquiring node\.ProviderNode\.mu while holding node\.syncer\.mu \(via call to .*OrphanCount\) closes a lock-order cycle`},
			{"provider.go", "!p.sync.active() {", `acquiring node\.syncer\.mu while holding node\.ProviderNode\.mu \(via call to .*active\) closes a lock-order cycle`},
		},
	},
	{
		// goleak counts a WaitGroup join as a termination path, so the
		// plant drops acceptLoop's join along with its stop case: with
		// only the stop case gone, the loop would hang Close instead.
		pass: "goleak",
		pkg:  "internal/wire",
		edits: []plantEdit{{"transport.go", `func (t *Transport) acceptLoop() {
	defer t.wg.Done()
	for {
		conn, err := t.ln.Accept()
		if err != nil {
			select {
			case <-t.stop:
				return
			default:
			}
`, `func (t *Transport) acceptLoop() {
	for {
		conn, err := t.ln.Accept()
		if err != nil {
`}},
		want: []plantWant{{"transport.go", "go t.acceptLoop()", `goroutine .*acceptLoop has no reachable termination path`}},
	},
	{
		pass: "wiretaint",
		pkg:  "internal/p2p",
		edits: []plantEdit{{"sync.go", `	if count > maxRangeCount {
		return malformed("declares %d blocks (max %d)", count, maxRangeCount)
	}
	out := make([][]byte, 0, count)
`, `	out := make([][]byte, 0, count)
	if count > maxRangeCount {
		return malformed("declares %d blocks (max %d)", count, maxRangeCount)
	}
`}},
		want: []plantWant{{"sync.go", "out := make([][]byte, 0, count)", `allocation size depends on wire-decoded count with no dominating bound check`}},
	},
	{
		pass:  "logdisc",
		pkg:   "internal/store",
		edits: []plantEdit{{"disk.go", "", "\nfunc plantedTrace(n int) { fmt.Println(\"appended\", n) }\n"}},
		want:  []plantWant{{"disk.go", `fmt.Println("appended", n)`, `fmt\.Println writes to stdout from an internal package`}},
	},
	{
		pass: "fsyncdisc",
		pkg:  "internal/store",
		edits: []plantEdit{{"disk.go", "", `
func (d *Disk) plantedAppend(rec []byte) error {
	_, err := d.logF.Write(rec)
	return err
}
`}},
		want: []plantWant{{"disk.go", "_, err := d.logF.Write(rec)", `store\.file\.Write on "logF" with no later Sync/Close`}},
	},
	{
		pass:  "deadexport",
		pkg:   "internal/txpool",
		edits: []plantEdit{{"txpool.go", "", "\n// PlantedUnused is referenced by nothing.\nfunc PlantedUnused() int { return 0 }\n"}},
		want:  []plantWant{{"txpool.go", "func PlantedUnused() int", `exported func PlantedUnused has no reference from a non-test file`}},
	},
}

// TestPassesCatchPlantsInRealPackages runs every plant row. It loads and
// type-checks the whole module, so it is skipped in -short runs.
func TestPassesCatchPlantsInRealPackages(t *testing.T) {
	if testing.Short() {
		t.Skip("loads and type-checks the whole module")
	}
	root, whole := loadModule(t)
	covered := map[string]bool{}
	for _, row := range plantRows {
		covered[row.pass] = true
		t.Run(row.pass, func(t *testing.T) { runPlant(t, root, whole, row) })
	}
	for _, p := range Passes() {
		if !covered[p.Name] {
			t.Errorf("pass %s has no plant row", p.Name)
		}
	}
}

func runPlant(t *testing.T, root string, whole []*Package, row plantRow) {
	var real *Package
	for _, p := range whole {
		if p.ImportPath == modPrefix+row.pkg {
			real = p
		}
	}
	if real == nil {
		t.Fatalf("package %s not in the module load", row.pkg)
	}

	// The copy keeps the package's module-relative path, so the committed
	// allowlist's file suffixes match it as they match the real files.
	src := map[string]string{}
	for _, f := range real.Files {
		name := real.Fset.Position(f.Pos()).Filename
		b, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		src[filepath.Base(name)] = string(b)
	}
	for _, e := range row.edits {
		s, ok := src[e.file]
		switch {
		case !ok:
			t.Fatalf("%s has no file %s", row.pkg, e.file)
		case e.old == "":
			s += e.new
		case strings.Count(s, e.old) != 1:
			t.Fatalf("%s/%s: plant anchor %q does not occur exactly once; the real code moved", row.pkg, e.file, e.old)
		default:
			s = strings.Replace(s, e.old, e.new, 1)
		}
		src[e.file] = s
	}
	dir := filepath.Join(t.TempDir(), filepath.FromSlash(row.pkg))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, s := range src {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(s), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	planted, err := loadDir(root, dir, real.ImportPath)
	if err != nil {
		t.Fatal(err)
	}
	for _, terr := range planted.TypeErrors {
		t.Fatalf("planted %s: type error: %v", row.pkg, terr)
	}
	prog := &Program{Whole: true}
	for _, p := range whole {
		if p != real {
			prog.Pkgs = append(prog.Pkgs, p)
		}
	}
	prog.Pkgs = append(prog.Pkgs, planted)
	planted.Prog = prog

	allow, err := LoadAllowlist(filepath.Join(root, ".scvet.allow"))
	if err != nil {
		t.Fatal(err)
	}
	kept, _ := allow.Filter(RunPasses([]*Package{planted}, Passes()))

	var own []Finding
	overlap := map[string]bool{}
	for _, f := range kept {
		if f.Pass == row.pass {
			own = append(own, f)
			t.Logf("caught: %s", f)
		} else {
			overlap[f.Pass] = true
			t.Logf("also fires: %s", f)
		}
	}
	matched := make([]bool, len(own))
	for _, w := range row.want {
		line := lineOf(t, src[w.file], w.at)
		re := regexp.MustCompile(w.msg)
		found := false
		for i, f := range own {
			if !matched[i] && filepath.Base(f.Pos.Filename) == w.file && f.Pos.Line == line && re.MatchString(f.Msg) {
				matched[i], found = true, true
				break
			}
		}
		if !found {
			t.Errorf("no [%s] finding at %s:%d matching `%s`", row.pass, w.file, line, w.msg)
		}
	}
	for i, f := range own {
		if !matched[i] {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	var got []string
	for p := range overlap {
		got = append(got, p)
	}
	sort.Strings(got)
	if !slices.Equal(got, row.overlap) {
		t.Errorf("other passes firing on the plant: %v, want %v", got, row.overlap)
	}
}

// lineOf returns the 1-based line of the one line of src containing at.
func lineOf(t *testing.T, src, at string) int {
	t.Helper()
	line := 0
	for i, l := range strings.Split(src, "\n") {
		if strings.Contains(l, at) {
			if line != 0 {
				t.Fatalf("%q occurs on more than one line", at)
			}
			line = i + 1
		}
	}
	if line == 0 {
		t.Fatalf("%q occurs on no line", at)
	}
	return line
}

var moduleLoad struct {
	once sync.Once
	root string
	pkgs []*Package
	err  error
}

// loadModule loads and type-checks the whole module once per test
// binary; the tests that share it only read it.
func loadModule(t *testing.T) (string, []*Package) {
	t.Helper()
	moduleLoad.once.Do(func() {
		moduleLoad.root, moduleLoad.err = filepath.Abs(filepath.Join("..", ".."))
		if moduleLoad.err == nil {
			moduleLoad.pkgs, moduleLoad.err = Load(moduleLoad.root, "./...")
		}
	})
	if moduleLoad.err != nil {
		t.Fatal(moduleLoad.err)
	}
	return moduleLoad.root, moduleLoad.pkgs
}
