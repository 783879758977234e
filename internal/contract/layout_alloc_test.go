//go:build !race

package contract

import (
	"runtime"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

var (
	keySink    types.Hash
	prefixSink recordPrefix
	infoSink   SRAInfo
)

// TestSlotKeysAllocateNothing: every key is derived on the stack — no
// variadic part list, no string converted to a slice — so reading a
// record costs no heap.
func TestSlotKeysAllocateNothing(t *testing.T) {
	f := newFixture(t, acceptAll)
	id := f.sra.ID
	vulnID := "SC-2019-0001-a-rather-long-identifier-of-a-vulnerability"
	for name, fn := range map[string]func(){
		"sraPrefix":    func() { prefixSink = sraPrefix(id) },
		"commitPrefix": func() { prefixSink = commitPrefix(id) },
		"field":        func() { keySink = sraPrefix(id).field(fieldSRAInsurance) },
		"claim":        func() { keySink = sraPrefix(id).claim(vulnID) },
		"GetSRA": func() {
			info, err := f.c.GetSRA(f.st, id)
			if err != nil {
				t.Fatal(err)
			}
			infoSink = info
		},
	} {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s made %.0f allocations, want 0", name, allocs)
		}
	}
}

// TestApplyDetailedReportAllocBudget prices one R* against a contract
// account holding 10⁴ slots, forked as a block's execution forks it: the
// reveal writes the commitment's record, the SRA's and the escrow total —
// about three paths into the storage trie — and no key costs heap.
func TestApplyDetailedReportAllocBudget(t *testing.T) {
	f := newFixture(t, acceptAll)
	for i := 0; i < 10_000; i++ {
		f.st.SetStorage(Address, types.HashBytes([]byte{byte(i >> 8), byte(i), 0xF1}), one)
	}
	detailed := &types.DetailedReport{
		SRAID:    f.sra.ID,
		Detector: f.detector.Address(),
		Wallet:   f.detector.Address(),
		Findings: findings("SC-1", "SC-2"),
	}
	if err := types.SignDetailedReport(detailed, f.detector); err != nil {
		t.Fatal(err)
	}
	initial := &types.InitialReport{
		SRAID:      f.sra.ID,
		Detector:   f.detector.Address(),
		DetailHash: detailed.CommitmentHash(),
		Wallet:     f.detector.Address(),
	}
	if err := types.SignInitialReport(initial, f.detector); err != nil {
		t.Fatal(err)
	}
	if err := f.c.ApplyInitialReport(f.st, 2, initial); err != nil {
		t.Fatal(err)
	}
	f.st.Root()

	reveal := func() {
		if _, err := f.c.ApplyDetailedReport(f.st.Copy(), 4, detailed); err != nil {
			t.Fatal(err)
		}
	}
	reveal() // warm the report's signature cache
	const runs = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		reveal()
	}
	runtime.ReadMemStats(&after)
	bytesPer := (after.TotalAlloc - before.TotalAlloc) / runs
	allocs := testing.AllocsPerRun(runs, reveal)
	t.Logf("ApplyDetailedReport on a 10k-slot account: %d B, %.0f allocations", bytesPer, allocs)
	// 4,656 B and 76 allocations when written; a layout that scattered a
	// record's fields over the trie, with keys hashed from part lists, made
	// 8,791 B and 163.
	if bytesPer > 5632 || allocs > 90 {
		t.Errorf("ApplyDetailedReport on a 10k-slot account: %d B and %.0f allocations, want <= 5.5 KiB and <= 90", bytesPer, allocs)
	}
}
