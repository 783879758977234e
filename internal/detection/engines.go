package detection

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// The paper's §VIII "Detection capability" discussion: detectors and
// providers build capability by (i) constructing vulnerability/virus
// libraries from published sources (CVE, NVD, SecurityFocus) — static
// signature scanning — or (ii) running dynamic/fuzz testing. This file
// models both, plus the composite "N-version" detection the paper
// motivates with CloudAV.

// Signature is one known-vulnerability record in a library, CVE-style.
type Signature struct {
	// VulnID is the canonical identifier the signature matches.
	VulnID string
	// Source names the feed the signature came from (CVE, NVD, ...).
	Source string
	// Severity is the published risk class.
	Severity types.Severity
}

// VulnLibrary is a signature database assembled from public feeds — the
// paper's "construct their own vulnerability/virus libraries, for example,
// integrating the published CVE, NVD, and SecurityFocus".
type VulnLibrary struct {
	signatures map[string]Signature
}

// NewVulnLibrary creates an empty library.
func NewVulnLibrary() *VulnLibrary {
	return &VulnLibrary{signatures: make(map[string]Signature)}
}

// Add records a signature, overwriting earlier entries for the same id.
func (l *VulnLibrary) Add(sig Signature) {
	l.signatures[sig.VulnID] = sig
}

// Has reports whether the library knows the vulnerability.
func (l *VulnLibrary) Has(vulnID string) bool {
	_, ok := l.signatures[vulnID]
	return ok
}

// LibraryEngine is a static signature scanner: it finds exactly the
// vulnerabilities its library knows, quickly and deterministically.
type LibraryEngine struct {
	// Name labels the detector.
	Name string
	// Library is the signature database.
	Library *VulnLibrary
	// ScanTime is the flat time a signature pass takes.
	ScanTime time.Duration
}

var _ Engine = (*LibraryEngine)(nil)

// Scan implements Engine: signature matching against ground truth.
func (e *LibraryEngine) Scan(img *SystemImage) []Detection {
	if e.Library == nil {
		return nil
	}
	scan := e.ScanTime
	if scan <= 0 {
		scan = 30 * time.Second
	}
	var out []Detection
	for _, v := range img.Vulns {
		if !e.Library.Has(v.ID) {
			continue
		}
		out = append(out, Detection{
			Finding: types.Finding{
				VulnID:   v.ID,
				Severity: v.Severity,
				Evidence: fmt.Sprintf("signature match by %s", e.Name),
			},
			After: scan,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Finding.VulnID < out[j].Finding.VulnID })
	return out
}

// FuzzingEngine models dynamic/fuzz testing: each campaign iteration has
// an independent chance of triggering each vulnerability, so coverage
// grows with the iteration budget — unlike signature scanning it can find
// unpublished flaws, but it is slow and probabilistic.
type FuzzingEngine struct {
	// Name labels the detector.
	Name string
	// Iterations is the campaign budget.
	Iterations int
	// HitRate is the per-iteration trigger probability for an average
	// vulnerability (scaled down by subtlety).
	HitRate float64
	// IterationTime is the duration of one iteration.
	IterationTime time.Duration
	// Seed makes campaigns deterministic.
	Seed int64
}

var _ Engine = (*FuzzingEngine)(nil)

// Scan implements Engine: a fuzzing campaign over the image.
func (e *FuzzingEngine) Scan(img *SystemImage) []Detection {
	iterations := e.Iterations
	if iterations <= 0 {
		iterations = 1000
	}
	hit := e.HitRate
	if hit <= 0 {
		hit = 0.001
	}
	iterTime := e.IterationTime
	if iterTime <= 0 {
		iterTime = 100 * time.Millisecond
	}
	rng := rand.New(rand.NewSource(e.Seed ^ img.seed()))
	var out []Detection
	for _, v := range img.Vulns {
		p := hit * (1 - v.Subtlety/2)
		// First triggering iteration ~ geometric(p).
		if p <= 0 {
			continue
		}
		trigger := 1 + int(rng.ExpFloat64()/p)
		if trigger > iterations {
			continue // budget exhausted before the crash reproduced
		}
		out = append(out, Detection{
			Finding: types.Finding{
				VulnID:   v.ID,
				Severity: v.Severity,
				Evidence: fmt.Sprintf("crash reproduced by %s after %d iterations", e.Name, trigger),
			},
			After: time.Duration(trigger) * iterTime,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].After < out[j].After })
	return out
}

// CompositeEngine runs several engines and merges their findings — the
// N-version protection of CloudAV that the paper builds on: engines with
// complementary blind spots cover more together.
type CompositeEngine struct {
	// Name labels the detector.
	Name string
	// Engines are the component analyzers.
	Engines []Engine
}

var _ Engine = (*CompositeEngine)(nil)

// Scan implements Engine: union of component findings, keeping the
// earliest discovery per vulnerability.
func (e *CompositeEngine) Scan(img *SystemImage) []Detection {
	best := make(map[string]Detection)
	for _, engine := range e.Engines {
		for _, d := range engine.Scan(img) {
			if prev, ok := best[d.Finding.VulnID]; !ok || d.After < prev.After {
				best[d.Finding.VulnID] = d
			}
		}
	}
	out := make([]Detection, 0, len(best))
	for _, d := range best {
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Finding.VulnID < out[j].Finding.VulnID })
	return out
}

// AggregateFindings merges findings reported by multiple detectors into
// one deduplicated reference, resolving the paper's §VIII "N-version
// vulnerability descriptions" problem: the same vulnerability reported
// with differently-worded evidence collapses onto its canonical VulnID,
// evidence strings concatenated for audit.
func AggregateFindings(reports ...[]types.Finding) []types.Finding {
	type slot struct {
		finding  types.Finding
		evidence []string
	}
	merged := make(map[string]*slot)
	for _, report := range reports {
		for _, f := range report {
			s, ok := merged[f.VulnID]
			if !ok {
				s = &slot{finding: f}
				merged[f.VulnID] = s
			}
			if f.Evidence != "" {
				duplicate := false
				for _, e := range s.evidence {
					if e == f.Evidence {
						duplicate = true
						break
					}
				}
				if !duplicate {
					s.evidence = append(s.evidence, f.Evidence)
				}
			}
			// Keep the highest severity claim (conservative for consumers).
			if f.Severity > s.finding.Severity {
				s.finding.Severity = f.Severity
			}
		}
	}
	out := make([]types.Finding, 0, len(merged))
	for _, s := range merged {
		s.finding.Evidence = strings.Join(s.evidence, " | ")
		out = append(out, s.finding)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].VulnID < out[j].VulnID })
	return out
}
