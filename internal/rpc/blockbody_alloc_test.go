//go:build !race

// Allocation pins: the race detector's instrumentation allocates on its
// own, so these run without it only.

package rpc

import (
	"net/http"
	"testing"
)

// TestWarmBlockPageAllocatesOnce pins the point of the appender: once
// its blocks' ids and transaction hashes are memoised, building a
// 20-block page — bounded or open-ended with its cursor — allocates the
// body and nothing else, and the body is sized exactly.
func TestWarmBlockPageAllocatesOnce(t *testing.T) {
	e := newEnv(t)
	for e.provider.Chain().HeadNumber() < 20 {
		e.mine()
	}
	view := e.provider.CurrentView()
	for _, tail := range []bool{false, true} {
		_, build, err := blockPage(view, 1, 20, tail)
		if err != nil {
			t.Fatal(err)
		}
		status, body := build() // warm the memos
		if status != http.StatusOK || len(body) != cap(body) {
			t.Fatalf("tail=%t: status %d, len %d, cap %d", tail, status, len(body), cap(body))
		}
		if n := testing.AllocsPerRun(50, func() { _, body = build() }); n != 1 {
			t.Errorf("tail=%t: a warm 20-block page allocates %.1f times, want 1", tail, n)
		}
	}
}
