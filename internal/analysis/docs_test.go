package analysis

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestDesignTablesMatchTree keeps DESIGN.md's tables and the tree in
// step: §2 has a row for every package under internal/ and cmd/ and no
// row for a path that is gone, §9's pass table is the catalog in order,
// and no code or design doc cites a ROADMAP item by number (re-anchors
// renumber items; a title survives them).
func TestDesignTablesMatchTree(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(root, "DESIGN.md"))
	if err != nil {
		t.Fatal(err)
	}
	design := string(raw)

	// §2: the Path column's backticked paths.
	rowPaths := map[string]bool{}
	for _, row := range tableRows(t, design, "## 2. ") {
		for _, m := range regexp.MustCompile("`([^`]+)`").FindAllStringSubmatch(row[1], -1) {
			rowPaths[m[1]] = true
			if _, err := os.Stat(filepath.Join(root, m[1])); err != nil {
				t.Errorf("DESIGN.md §2 lists %s, which does not exist", m[1])
			}
		}
	}
	for _, top := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if !d.IsDir() || !hasGoSource(t, path) {
				return nil
			}
			rel, _ := filepath.Rel(root, path)
			if rel = filepath.ToSlash(rel); !rowPaths[rel] {
				t.Errorf("package %s has no row in DESIGN.md §2", rel)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// §9: the pass table, in catalog order.
	var documented, catalog []string
	for _, row := range tableRows(t, design, "## 9. ") {
		documented = append(documented, strings.Trim(row[0], "` "))
	}
	for _, p := range Passes() {
		catalog = append(catalog, p.Name)
	}
	if !slices.Equal(documented, catalog) {
		t.Errorf("DESIGN.md §9 pass table = %v, catalog = %v", documented, catalog)
	}

	// Item numbers: Go files outside the frozen benchmark, and the docs
	// that describe the code.
	cite := regexp.MustCompile(`ROADMAP items? #?[0-9]`)
	check := func(path string) {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			if cite.MatchString(line) {
				rel, _ := filepath.Rel(root, path)
				t.Errorf("%s:%d cites a ROADMAP item by number; cite its title", rel, i+1)
			}
		}
	}
	for _, doc := range []string{"DESIGN.md", "README.md", "PROTOCOL.md", "EXPERIMENTS.md", "Makefile", ".scvet.allow"} {
		check(filepath.Join(root, doc))
	}
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "benchmark") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			check(path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// tableRows returns the cells of the body rows of the first table in the
// DESIGN.md section whose heading starts with heading.
func tableRows(t *testing.T, doc, heading string) [][]string {
	t.Helper()
	start := strings.Index(doc, "\n"+heading)
	if start < 0 {
		t.Fatalf("DESIGN.md has no section %q", heading)
	}
	section := doc[start+1:]
	if end := strings.Index(section, "\n## "); end >= 0 {
		section = section[:end]
	}
	var rows [][]string
	inTable := false
	for _, line := range strings.Split(section, "\n") {
		if !strings.HasPrefix(line, "|") {
			if inTable {
				break
			}
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		switch {
		case !inTable: // header row
			inTable = true
		case strings.HasPrefix(line, "|---"):
		default:
			for i := range cells {
				cells[i] = strings.TrimSpace(cells[i])
			}
			rows = append(rows, cells)
		}
	}
	if len(rows) == 0 {
		t.Fatalf("DESIGN.md section %q has no table", heading)
	}
	return rows
}

// hasGoSource reports whether dir holds a non-test Go file.
func hasGoSource(t *testing.T, dir string) bool {
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			return true
		}
	}
	return false
}
