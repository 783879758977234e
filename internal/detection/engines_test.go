package detection

import (
	"math/rand"
	"strings"
	"testing"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

func testImage() *SystemImage {
	return GenerateImage("lib-fw", "1.0", UniverseSpec{High: 10, Medium: 10, Low: 10, Seed: 99})
}

func TestVulnLibraryBasics(t *testing.T) {
	lib := NewVulnLibrary()
	if lib.Len() != 0 || lib.Has("X") {
		t.Error("fresh library not empty")
	}
	lib.Add(Signature{VulnID: "CVE-1", Source: "CVE", Severity: types.SeverityHigh})
	lib.Add(Signature{VulnID: "CVE-1", Source: "NVD", Severity: types.SeverityHigh}) // overwrite
	lib.Add(Signature{VulnID: "CVE-2", Source: "CVE", Severity: types.SeverityLow})
	if lib.Len() != 2 || !lib.Has("CVE-1") || !lib.Has("CVE-2") {
		t.Errorf("library state wrong: len=%d", lib.Len())
	}
}

func TestVulnLibraryMergeFeeds(t *testing.T) {
	img := testImage()
	cve := FeedFromImage(img, "CVE", 0.4, 1)
	nvd := FeedFromImage(img, "NVD", 0.4, 2)
	merged := NewVulnLibrary()
	merged.Merge(cve)
	merged.Merge(nvd)
	if merged.Len() < cve.Len() || merged.Len() < nvd.Len() {
		t.Error("merge lost signatures")
	}
	if merged.Len() > cve.Len()+nvd.Len() {
		t.Error("merge invented signatures")
	}
	// Feeds are deterministic.
	if again := FeedFromImage(img, "CVE", 0.4, 1); again.Len() != cve.Len() {
		t.Error("feed not deterministic")
	}
}

func TestLibraryEngineFindsExactlyKnownVulns(t *testing.T) {
	img := testImage()
	lib := FeedFromImage(img, "CVE", 0.5, 7)
	e := &LibraryEngine{Name: "sig-scan", Library: lib}
	ds := e.Scan(img)
	if len(ds) != lib.Len() {
		t.Errorf("found %d, library knows %d", len(ds), lib.Len())
	}
	for _, d := range ds {
		if !lib.Has(d.Finding.VulnID) {
			t.Errorf("found %s which is not in the library", d.Finding.VulnID)
		}
		if !strings.Contains(d.Finding.Evidence, "sig-scan") {
			t.Error("evidence does not attribute the scanner")
		}
	}
	// Nil library finds nothing.
	if got := (&LibraryEngine{Name: "empty"}).Scan(img); got != nil {
		t.Error("nil library found something")
	}
}

func TestFuzzingEngineBudgetScalesCoverage(t *testing.T) {
	img := testImage()
	small := &FuzzingEngine{Name: "fuzz", Iterations: 50, HitRate: 0.01, Seed: 3}
	big := &FuzzingEngine{Name: "fuzz", Iterations: 100_000, HitRate: 0.01, Seed: 3}
	nSmall, nBig := len(small.Scan(img)), len(big.Scan(img))
	if nSmall >= nBig {
		t.Errorf("bigger budget found fewer vulns: %d vs %d", nSmall, nBig)
	}
	if nBig < len(img.Vulns)/2 {
		t.Errorf("100k iterations at 1%% hit rate found only %d of %d", nBig, len(img.Vulns))
	}
}

func TestFuzzingEngineTimeGrowsWithTrigger(t *testing.T) {
	img := testImage()
	e := &FuzzingEngine{Name: "fuzz", Iterations: 100_000, HitRate: 0.01, Seed: 3,
		IterationTime: time.Millisecond}
	ds := e.Scan(img)
	if len(ds) < 2 {
		t.Skip("not enough detections for ordering check")
	}
	for i := 1; i < len(ds); i++ {
		if ds[i].After < ds[i-1].After {
			t.Fatal("fuzzing detections not time-ordered")
		}
	}
}

func TestFuzzingEngineOnlyReportsReal(t *testing.T) {
	img := testImage()
	truth := make(map[string]bool)
	for _, v := range img.Vulns {
		truth[v.ID] = true
	}
	e := &FuzzingEngine{Name: "fuzz", Iterations: 10_000, HitRate: 0.05, Seed: 5}
	for _, d := range e.Scan(img) {
		if !truth[d.Finding.VulnID] {
			t.Errorf("fuzzer fabricated %s", d.Finding.VulnID)
		}
	}
}

func TestCompositeEngineUnionCoverage(t *testing.T) {
	img := testImage()
	// Two narrow libraries with different halves of the truth.
	libA := FeedFromImage(img, "CVE", 0.4, 11)
	libB := FeedFromImage(img, "NVD", 0.4, 22)
	a := &LibraryEngine{Name: "a", Library: libA}
	b := &LibraryEngine{Name: "b", Library: libB}
	comp := &CompositeEngine{Name: "nversion", Engines: []Engine{a, b}}

	union := make(map[string]bool)
	for _, d := range a.Scan(img) {
		union[d.Finding.VulnID] = true
	}
	for _, d := range b.Scan(img) {
		union[d.Finding.VulnID] = true
	}
	got := comp.Scan(img)
	if len(got) != len(union) {
		t.Errorf("composite found %d, union is %d", len(got), len(union))
	}
	// No duplicates.
	seen := make(map[string]bool)
	for _, d := range got {
		if seen[d.Finding.VulnID] {
			t.Errorf("composite duplicated %s", d.Finding.VulnID)
		}
		seen[d.Finding.VulnID] = true
	}
}

func TestCompositeKeepsEarliestDiscovery(t *testing.T) {
	img := testImage()
	lib := FeedFromImage(img, "CVE", 1.0, 1)
	slow := &LibraryEngine{Name: "slow", Library: lib, ScanTime: time.Hour}
	fast := &LibraryEngine{Name: "fast", Library: lib, ScanTime: time.Second}
	comp := &CompositeEngine{Name: "c", Engines: []Engine{slow, fast}}
	for _, d := range comp.Scan(img) {
		if d.After != time.Second {
			t.Fatalf("composite kept the slower discovery (%v)", d.After)
		}
	}
}

func TestAggregateFindingsDeduplicatesNVersions(t *testing.T) {
	// The same vulnerability reported with differently-worded evidence by
	// three detectors (§VIII N-version descriptions).
	a := []types.Finding{{VulnID: "V-1", Severity: types.SeverityMedium, Evidence: "buffer overflow in httpd"}}
	b := []types.Finding{{VulnID: "V-1", Severity: types.SeverityHigh, Evidence: "heap smash via long URI"}}
	c := []types.Finding{
		{VulnID: "V-1", Severity: types.SeverityMedium, Evidence: "buffer overflow in httpd"}, // exact dup
		{VulnID: "V-2", Severity: types.SeverityLow, Evidence: "weak cipher"},
	}
	merged := AggregateFindings(a, b, c)
	if len(merged) != 2 {
		t.Fatalf("merged %d findings, want 2", len(merged))
	}
	v1 := merged[0]
	if v1.VulnID != "V-1" {
		v1 = merged[1]
	}
	if v1.Severity != types.SeverityHigh {
		t.Errorf("aggregate kept severity %v, want the highest claim", v1.Severity)
	}
	if !strings.Contains(v1.Evidence, "httpd") || !strings.Contains(v1.Evidence, "heap smash") {
		t.Errorf("aggregate lost evidence variants: %q", v1.Evidence)
	}
	if strings.Count(v1.Evidence, "buffer overflow in httpd") != 1 {
		t.Error("exact duplicate evidence not collapsed")
	}
}

func TestAggregateFindingsEmpty(t *testing.T) {
	if got := AggregateFindings(); len(got) != 0 {
		t.Error("empty aggregation produced findings")
	}
	if got := AggregateFindings(nil, nil); len(got) != 0 {
		t.Error("nil reports produced findings")
	}
}

// Merge imports every signature from another library (feed integration).
func (l *VulnLibrary) Merge(other *VulnLibrary) {
	for _, sig := range other.signatures {
		l.Add(sig)
	}
}

// Len returns the signature count.
func (l *VulnLibrary) Len() int { return len(l.signatures) }

// FeedFromImage builds a feed covering a fraction of an image's ground
// truth — a stand-in for the public disclosure process that populates CVE
// databases. Deterministic for a (source, seed) pair.
func FeedFromImage(img *SystemImage, source string, coverage float64, seed int64) *VulnLibrary {
	rng := rand.New(rand.NewSource(seed))
	lib := NewVulnLibrary()
	for _, v := range img.Vulns {
		if rng.Float64() < coverage {
			lib.Add(Signature{VulnID: v.ID, Source: source, Severity: v.Severity})
		}
	}
	return lib
}
