package benchmark

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"math/rand"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// genInputs builds a small version of every kind of generated input and
// flattens it to bytes.
func genInputs(t *testing.T, seed int64) (txs []byte, schedule []readOp) {
	t.Helper()
	provs := genAccounts(seed, "provider", 2)
	dets := genAccounts(seed, "detector", 2)
	lcs, err := genLifecycles(seed, 0, 6, provs, dets)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	var sraIDs, hashes []types.Hash
	for _, lc := range lcs {
		for _, st := range []signedTx{lc.sra, lc.init, lc.detail} {
			buf.Write(st.body)
			hashes = append(hashes, st.hash)
		}
		sraIDs = append(sraIDs, lc.sraID)
	}
	transfers, err := genTransfers(genAccounts(seed, "sender", 5), 3)
	if err != nil {
		t.Fatal(err)
	}
	for _, round := range transfers {
		for _, st := range round {
			buf.Write(st.body)
		}
	}
	schedule = genReadSchedule(rand.New(rand.NewSource(seed)), 256, sraIDs, hashes, 40)
	return buf.Bytes(), schedule
}

// TestSeedDeterminism: the same seed yields byte-identical transactions
// and read schedules, another seed different ones.
func TestSeedDeterminism(t *testing.T) {
	txA, schedA := genInputs(t, 918273645)
	txB, schedB := genInputs(t, 918273645)
	if !bytes.Equal(txA, txB) {
		t.Error("same seed produced different transactions")
	}
	if len(schedA) != len(schedB) {
		t.Fatal("same seed produced schedules of different length")
	}
	for i := range schedA {
		if schedA[i] != schedB[i] {
			t.Fatalf("same seed produced different read schedules at %d: %+v vs %+v", i, schedA[i], schedB[i])
		}
	}
	txC, schedC := genInputs(t, 918273646)
	if bytes.Equal(txA, txC) {
		t.Error("different seeds produced identical transactions")
	}
	same := true
	for i := range schedA {
		if schedA[i] != schedC[i] {
			same = false
		}
	}
	if same {
		t.Error("different seeds produced identical read schedules")
	}
}

// TestSeedStaysOutside: the seed's value never appears in anything handed
// to the program — not in a transaction body, not in an SRA name.
func TestSeedStaysOutside(t *testing.T) {
	const seed = 918273645
	provs, dets := genAccounts(seed, "provider", 1), genAccounts(seed, "detector", 1)
	lcs, err := genLifecycles(seed, 0, 4, provs, dets)
	if err != nil {
		t.Fatal(err)
	}
	needle := strconv.Itoa(seed)
	for _, lc := range lcs {
		sra, err := lc.sra.tx.SRA()
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range []string{sra.Name, sra.DownloadLink, lc.image.Name, string(lc.image.Payload), string(lc.sra.tx.Data)} {
			if strings.Contains(s, needle) {
				t.Errorf("seed value leaked into program input %q", s)
			}
		}
	}
}

// TestProgramKnowsNoWorkload: nothing under internal/** imports the
// benchmark or carries a workload's name or "scbench" as a string
// literal, so no code path can key on which workload is running.
func TestProgramKnowsNoWorkload(t *testing.T) {
	banned := map[string]bool{"scbench": true}
	for _, w := range workloads {
		banned[w.Name] = true
	}
	fset := token.NewFileSet()
	err := filepath.WalkDir("../internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(file, func(n ast.Node) bool {
			lit, ok := n.(*ast.BasicLit)
			if !ok || lit.Kind != token.STRING {
				return true
			}
			s, err := strconv.Unquote(lit.Value)
			if err != nil {
				return true
			}
			if banned[s] || strings.HasSuffix(s, "/smartcrowd/benchmark") {
				t.Errorf("%s: string literal %q", fset.Position(lit.Pos()), s)
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
