package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// TestStdoutGolden runs the deterministic subcommands with their default
// flags and compares what they print with testdata/<subcommand>.golden.
// A change that should move an output regenerates its file on purpose:
//
//	go run ./cmd/smartcrowd demo > cmd/smartcrowd/testdata/demo.golden
func TestStdoutGolden(t *testing.T) {
	for _, sub := range []string{"demo", "simulate"} {
		t.Run(sub, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", sub+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			var code int
			got := captureStdout(t, func() { code = run([]string{sub}) })
			if code != 0 {
				t.Fatalf("smartcrowd %s exited %d", sub, code)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("smartcrowd %s printed\n%s\nwant\n%s", sub, got, want)
			}
		})
	}
}

// captureStdout returns what f writes to os.Stdout.
func captureStdout(t *testing.T, f func()) []byte {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	done := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		done <- b
	}()
	defer func() { os.Stdout = saved }()
	f()
	_ = w.Close()
	return <-done
}
