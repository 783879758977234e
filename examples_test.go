package smartcrowd_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestExamplesStdoutGolden builds the programs under examples/ and
// compares what each prints with testdata/examples/<name>.golden. Every
// example is deterministic, so a change that moves an output regenerates
// its file on purpose:
//
//	go run ./examples/quickstart > testdata/examples/quickstart.golden
func TestExamplesStdoutGolden(t *testing.T) {
	bin := t.TempDir()
	build := exec.Command("go", "build", "-o", bin, "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	for _, name := range []string{"attack-resilience", "firmware-release", "marketplace-audit", "quickstart", "retro-monitor"} {
		t.Run(name, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", "examples", name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var stderr bytes.Buffer
			cmd := exec.Command(filepath.Join(bin, name))
			cmd.Stderr = &stderr
			got, err := cmd.Output()
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.Bytes())
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s printed\n%s\nwant\n%s", name, got, want)
			}
		})
	}
}
