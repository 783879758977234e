package bench

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestAllExperimentsQuickScale runs every table/figure regeneration at
// Quick scale, requires every paper-shape check to pass, and pins each
// report's rendering to testdata/quick/<id>.txt (generated at 3891772),
// so a figure moves only on purpose.
func TestAllExperimentsQuickScale(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment reproductions are not short")
	}
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			t.Parallel()
			report, err := exp.Run(Quick)
			if err != nil {
				t.Fatalf("%s failed: %v", exp.ID, err)
			}
			if !report.ShapeOK {
				t.Errorf("%s: paper-shape checks failed:\n%s", exp.ID, report)
			}
			if len(report.Rows) == 0 {
				t.Errorf("%s: report has no rows", exp.ID)
			}
			golden, err := os.ReadFile(filepath.Join("testdata", "quick", exp.ID+".txt"))
			if err != nil {
				t.Fatal(err)
			}
			if got := report.String(); got != string(golden) {
				t.Errorf("%s: report differs from testdata/quick/%s.txt\ngot:\n%s\nwant:\n%s", exp.ID, exp.ID, got, golden)
			}
		})
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("fig5a"); !ok {
		t.Error("fig5a not found")
	}
	if _, ok := ByID("nope"); ok {
		t.Error("bogus id found")
	}
}

func TestReportRendering(t *testing.T) {
	r := &Report{
		ID:      "x",
		Title:   "test",
		Headers: []string{"A", "LongHeader"},
		Rows:    [][]string{{"1", "2"}, {"333", "4"}},
		ShapeOK: true,
	}
	r.check(true, "fine")
	r.check(false, "broken")
	r.note("just a note")
	out := r.String()
	for _, want := range []string{"== x — test ==", "A", "LongHeader", "[PASS] fine", "[FAIL] broken", "just a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendering missing %q:\n%s", want, out)
		}
	}
	if r.ShapeOK {
		t.Error("failed check did not clear ShapeOK")
	}
}

func TestReportCSV(t *testing.T) {
	r := &Report{
		Headers: []string{"A", "B"},
		Rows:    [][]string{{"1", "x,y"}, {"2", `say "hi"`}},
	}
	got := r.CSV()
	want := "A,B\n1,\"x,y\"\n2,\"say \"\"hi\"\"\"\n"
	if got != want {
		t.Errorf("CSV = %q, want %q", got, want)
	}
}
