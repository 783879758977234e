//go:build !race

package store

import (
	"path/filepath"
	"runtime"
	"testing"
)

// Byte counts here would be off under the race detector, which allocates
// shadow memory of its own.

// TestReopenAllocatesUnderAQuarterOfItsLog: a reopen streams blocks.log
// through the Disk's write buffer and keeps headers, not bodies, so what
// it allocates is a fraction of the log — the headers, the indexes over
// them, the decoded head and the state — however large the bodies are.
func TestReopenAllocatesUnderAQuarterOfItsLog(t *testing.T) {
	const blocks, txsPerBlock = 128, 128
	dir := t.TempDir()
	f := mustOpen(t, dir, 0)
	for i := 0; i < blocks; i++ {
		f.extendToOne(txsPerBlock)
	}
	if err := f.chain.Close(); err != nil {
		t.Fatal(err)
	}
	logBytes := sizeOnDisk(t, filepath.Join(dir, logName))

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	reopened := mustOpen(t, dir, 0)
	runtime.ReadMemStats(&after)
	defer reopened.chain.Close()
	allocated := after.TotalAlloc - before.TotalAlloc
	t.Logf("reopen allocated %d bytes over a %d-byte log", allocated, logBytes)
	if allocated >= uint64(logBytes)/4 {
		t.Errorf("reopen allocated %d bytes, a quarter of the %d-byte log or more", allocated, logBytes)
	}
}

// TestReopenedHeapDoesNotScaleWithBodies reopens two datadirs of the same
// block count, the second's blocks carrying eight times the first's
// transactions. What the reopened chains keep live differs by the head
// block each decodes, not by their logs' difference.
func TestReopenedHeapDoesNotScaleWithBodies(t *testing.T) {
	const blocks = 128
	live := func(txsPerBlock int) (heap uint64, logBytes int64) {
		dir := t.TempDir()
		f := mustOpen(t, dir, 0)
		for i := 0; i < blocks; i++ {
			f.extendToOne(txsPerBlock)
		}
		if err := f.chain.Close(); err != nil {
			t.Fatal(err)
		}
		// What the reopened chain keeps live is the heap with it less the
		// heap once it is closed and unreachable, each after a collection.
		var with, without runtime.MemStats
		reopened := mustOpen(t, dir, 0)
		runtime.GC()
		runtime.ReadMemStats(&with)
		if err := reopened.chain.Close(); err != nil {
			t.Fatal(err)
		}
		reopened = nil
		runtime.GC()
		runtime.ReadMemStats(&without)
		return with.HeapAlloc - min(with.HeapAlloc, without.HeapAlloc), sizeOnDisk(t, filepath.Join(dir, logName))
	}
	smallHeap, smallLog := live(4)
	bigHeap, bigLog := live(32)
	growth := int64(bigHeap) - int64(smallHeap)
	t.Logf("live heap %d → %d bytes as the log went %d → %d bytes", smallHeap, bigHeap, smallLog, bigLog)
	if growth > (bigLog-smallLog)/4 {
		t.Errorf("live heap grew %d bytes with %d more log bytes: the reopened chain holds its bodies", growth, bigLog-smallLog)
	}
}
