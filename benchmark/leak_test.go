package benchmark

import (
	"context"
	"errors"
	"io"
	"net"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"
)

// assertNothingLeft checks what must hold after Run returns on any path:
// goroutines back to the baseline, nothing listening on the ports the
// cluster used, and the temporary root gone.
func assertNothingLeft(t *testing.T, baseline int, root string, listeners []string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > baseline {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines, baseline %d\n%s", n, baseline, buf[:runtime.Stack(buf, true)])
	}
	for _, addr := range listeners {
		if conn, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
			conn.Close()
			t.Errorf("%s still accepts connections", addr)
		}
	}
	if root == "" {
		t.Error("run reported no temporary root")
	} else if _, err := os.Stat(root); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("temporary root %s still exists (err %v)", root, err)
	}
}

// TestNothingLeftRunning runs a tiny workload to completion and checks
// that it leaves nothing behind.
func TestNothingLeftRunning(t *testing.T) {
	baseline := runtime.NumGoroutine()
	res := tinyRun(t, "lifecycle", false)
	if len(res.Listeners) != 6 {
		t.Fatalf("3 nodes reported listeners %v", res.Listeners)
	}
	assertNothingLeft(t, baseline, res.TempRoot, res.Listeners)
}

// TestCancelLeavesNothing cancels a run in flight — what SIGINT/SIGTERM
// do through main's signal context — and checks the same.
func TestCancelLeavesNothing(t *testing.T) {
	baseline := runtime.NumGoroutine()
	workdir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(150 * time.Millisecond)
		cancel()
	}()
	// Full scale, so the cancellation lands mid-run.
	res, err := Run(ctx, Options{Workload: "txflood", Seed: 3, Seconds: 2, WorkDir: workdir, Started: time.Now(), Out: io.Discard})
	if err == nil {
		t.Fatalf("a cancelled run returned a result: %+v", res)
	}
	// The temporary root was the only thing in workdir.
	entries, rdErr := os.ReadDir(workdir)
	if rdErr != nil || len(entries) != 0 {
		t.Errorf("workdir not empty after cancel: %v (err %v)", entries, rdErr)
	}
	assertNothingLeft(t, baseline, filepath.Join(workdir, "gone"), nil)
}
