package detection

import (
	"strings"
	"testing"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

func TestGenerateImageDeterministic(t *testing.T) {
	spec := UniverseSpec{High: 3, Medium: 5, Low: 7, Seed: 42}
	a := GenerateImage("fw", "1.0", spec)
	b := GenerateImage("fw", "1.0", spec)
	if a.Hash() != b.Hash() {
		t.Error("image hash not deterministic")
	}
	if len(a.Vulns) != 15 || len(b.Vulns) != 15 {
		t.Fatalf("universe size = %d, want 15", len(a.Vulns))
	}
	for i := range a.Vulns {
		if a.Vulns[i] != b.Vulns[i] {
			t.Fatal("universe not deterministic")
		}
	}
	counts := a.CountBySeverity()
	if counts[types.SeverityHigh] != 3 || counts[types.SeverityMedium] != 5 || counts[types.SeverityLow] != 7 {
		t.Errorf("severity counts %v", counts)
	}
}

func TestGenerateImageUniqueIDs(t *testing.T) {
	img := GenerateImage("fw", "1.0", UniverseSpec{High: 10, Medium: 10, Low: 10, Seed: 1})
	seen := make(map[string]bool)
	for _, v := range img.Vulns {
		if seen[v.ID] {
			t.Fatalf("duplicate vuln id %s", v.ID)
		}
		seen[v.ID] = true
		if v.Subtlety <= 0 || v.Subtlety > 1 {
			t.Errorf("subtlety %v out of range", v.Subtlety)
		}
	}
}

func TestCapabilityEngineFindsMoreWithHigherCapability(t *testing.T) {
	img := GenerateImage("fw", "1.0", UniverseSpec{High: 30, Medium: 60, Low: 110, Seed: 7})
	weak := &CapabilityEngine{Name: "weak", Capability: 0.2, Speed: 1, Seed: 5}
	strong := &CapabilityEngine{Name: "strong", Capability: 0.9, Speed: 1, Seed: 5}
	nWeak, nStrong := len(weak.Scan(img)), len(strong.Scan(img))
	if nWeak >= nStrong {
		t.Errorf("weak found %d, strong %d", nWeak, nStrong)
	}
	if nStrong == 0 {
		t.Error("strong engine found nothing")
	}
}

func TestCapabilityEngineOnlyReportsRealVulns(t *testing.T) {
	img := GenerateImage("fw", "1.0", UniverseSpec{High: 5, Medium: 5, Low: 5, Seed: 3})
	truth := make(map[string]bool)
	for _, v := range img.Vulns {
		truth[v.ID] = true
	}
	e := &CapabilityEngine{Name: "d", Capability: 1.0, Speed: 2, Seed: 11}
	for _, d := range e.Scan(img) {
		if !truth[d.Finding.VulnID] {
			t.Errorf("engine reported nonexistent %s", d.Finding.VulnID)
		}
	}
}

func TestCapabilityEngineScanSortedByTime(t *testing.T) {
	img := GenerateImage("fw", "1.0", UniverseSpec{High: 20, Medium: 20, Low: 20, Seed: 9})
	e := &CapabilityEngine{Name: "d", Capability: 0.8, Speed: 1, Seed: 2}
	ds := e.Scan(img)
	for i := 1; i < len(ds); i++ {
		if ds[i].After < ds[i-1].After {
			t.Fatal("detections not time-sorted")
		}
	}
}

func TestCapabilityEngineSpeedShortensSearch(t *testing.T) {
	img := GenerateImage("fw", "1.0", UniverseSpec{High: 40, Medium: 80, Low: 120, Seed: 4})
	slow := &CapabilityEngine{Name: "s", Capability: 1, Speed: 1, MeanFindTime: time.Minute, Seed: 8}
	fast := &CapabilityEngine{Name: "f", Capability: 1, Speed: 8, MeanFindTime: time.Minute, Seed: 8}
	avg := func(ds []Detection) time.Duration {
		var sum time.Duration
		for _, d := range ds {
			sum += d.After
		}
		return sum / time.Duration(len(ds))
	}
	if avg(fast.Scan(img)) >= avg(slow.Scan(img)) {
		t.Error("8-thread engine not faster than 1-thread")
	}
}

func TestForgingEngineFindingsFailAutoVerif(t *testing.T) {
	img := GenerateImage("fw", "1.0", UniverseSpec{High: 5, Medium: 5, Low: 5, Seed: 6})
	v := NewGroundTruthVerifier(false)
	sraID := types.HashBytes([]byte("sra"))
	v.Register(sraID, img)

	forger := &ForgingEngine{Name: "evil", Count: 4}
	for _, d := range forger.Scan(img) {
		if v.AutoVerif(sraID, d.Finding) {
			t.Errorf("forged finding %s passed AutoVerif", d.Finding.VulnID)
		}
	}
}

func TestGroundTruthVerifier(t *testing.T) {
	img := GenerateImage("fw", "1.0", UniverseSpec{High: 2, Medium: 0, Low: 0, Seed: 6})
	sraID := types.HashBytes([]byte("sra"))
	v := NewGroundTruthVerifier(false)
	if v.Known(sraID) {
		t.Error("verifier knows an unregistered SRA")
	}
	v.Register(sraID, img)
	if !v.Known(sraID) {
		t.Error("registration lost")
	}
	real := types.Finding{VulnID: img.Vulns[0].ID, Severity: img.Vulns[0].Severity}
	if !v.AutoVerif(sraID, real) {
		t.Error("genuine finding rejected")
	}
	if v.AutoVerif(sraID, types.Finding{VulnID: "NOPE", Severity: types.SeverityHigh}) {
		t.Error("fabricated finding accepted")
	}
	if v.AutoVerif(types.HashBytes([]byte("other")), real) {
		t.Error("finding verified against wrong SRA")
	}
}

func TestGroundTruthVerifierStrictSeverity(t *testing.T) {
	img := GenerateImage("fw", "1.0", UniverseSpec{High: 1, Medium: 0, Low: 0, Seed: 6})
	sraID := types.HashBytes([]byte("sra"))
	strict := NewGroundTruthVerifier(true)
	strict.Register(sraID, img)
	misclassified := types.Finding{VulnID: img.Vulns[0].ID, Severity: types.SeverityLow}
	if strict.AutoVerif(sraID, misclassified) {
		t.Error("strict verifier accepted wrong severity")
	}
	lax := NewGroundTruthVerifier(false)
	lax.Register(sraID, img)
	if !lax.AutoVerif(sraID, misclassified) {
		t.Error("lax verifier rejected correct vuln id")
	}
}

func TestPlagiarizingEngine(t *testing.T) {
	img := GenerateImage("fw", "1.0", UniverseSpec{High: 3, Medium: 0, Low: 0, Seed: 6})
	honest := &CapabilityEngine{Name: "honest", Capability: 1, Seed: 1}
	victimFindings := honest.Scan(img)

	thief := &PlagiarizingEngine{Name: "thief"}
	if len(thief.Scan(img)) != 0 {
		t.Error("plagiarist found something without observing")
	}
	for _, d := range victimFindings {
		thief.Observe([]types.Finding{d.Finding})
	}
	stolen := thief.Scan(img)
	if len(stolen) != len(victimFindings) {
		t.Errorf("stolen %d, observed %d", len(stolen), len(victimFindings))
	}
}

func TestTableIServiceCountsMatchPaper(t *testing.T) {
	apps := TableIApps()
	services := TableIServices()
	for _, svc := range services {
		for _, app := range apps {
			got := CountBySeverity(svc.Scan(app))
			want := svc.Counts[app.Name]
			if got != want {
				t.Errorf("%s on %s: counts %v, want %v", svc.Name, app.Name, got, want)
			}
		}
	}
}

func TestTableIServicesPartialOverlap(t *testing.T) {
	apps := TableIApps()
	quixxi := TableIServices()[1]
	jaq := TableIServices()[3]
	for _, app := range apps {
		a, b := quixxi.Scan(app), jaq.Scan(app)
		if len(a) == 0 || len(b) == 0 {
			t.Fatalf("%s: empty scans", app.Name)
		}
		o := Overlap(quixxi.Name, a, jaq.Name, b)
		if o.Jaccard() >= 0.9 {
			t.Errorf("%s: services nearly identical (jaccard %.2f) — Table I requires partial overlap",
				app.Name, o.Jaccard())
		}
	}
}

func TestServiceScanDeterministic(t *testing.T) {
	app := TableIApps()[0]
	svc := TableIServices()[3]
	a, b := svc.Scan(app), svc.Scan(app)
	if len(a) != len(b) {
		t.Fatal("scan sizes differ")
	}
	for i := range a {
		if a[i].Finding.VulnID != b[i].Finding.VulnID {
			t.Fatal("scan not deterministic")
		}
	}
}

func TestServiceScanUnknownApp(t *testing.T) {
	svc := TableIServices()[1]
	other := GenerateImage("unknown-app", "9", UniverseSpec{High: 5, Seed: 1})
	if got := svc.Scan(other); got != nil {
		t.Errorf("service scanned unknown app: %d findings", len(got))
	}
}

func TestOverlapStats(t *testing.T) {
	mk := func(ids ...string) []Detection {
		out := make([]Detection, len(ids))
		for i, id := range ids {
			out[i] = Detection{Finding: types.Finding{VulnID: id}}
		}
		return out
	}
	o := Overlap("a", mk("x", "y", "z"), "b", mk("y", "z", "w"))
	if o.Intersect != 2 || o.SizeA != 3 || o.SizeB != 3 {
		t.Errorf("overlap %+v", o)
	}
	if j := o.Jaccard(); j < 0.49 || j > 0.51 {
		t.Errorf("jaccard %v, want 0.5", j)
	}
	empty := Overlap("a", nil, "b", nil)
	if empty.Jaccard() != 0 {
		t.Error("empty jaccard should be 0")
	}
}

func TestEvidenceMentionsEngine(t *testing.T) {
	img := GenerateImage("fw", "1.0", UniverseSpec{High: 10, Medium: 0, Low: 0, Seed: 2})
	e := &CapabilityEngine{Name: "scanner-7", Capability: 1, Seed: 1}
	ds := e.Scan(img)
	if len(ds) == 0 {
		t.Fatal("no detections")
	}
	if !strings.Contains(ds[0].Finding.Evidence, "scanner-7") {
		t.Error("evidence does not attribute the engine")
	}
}

// CountBySeverity tallies the ground truth per severity.
func (img *SystemImage) CountBySeverity() map[types.Severity]int {
	out := make(map[types.Severity]int, 3)
	for _, v := range img.Vulns {
		out[v.Severity]++
	}
	return out
}

// Known reports whether a ground truth is registered for the SRA.
func (v *GroundTruthVerifier) Known(sraID types.Hash) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	_, ok := v.truth[sraID]
	return ok
}
