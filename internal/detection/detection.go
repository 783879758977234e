// Package detection models the security-detection substrate of SmartCrowd:
// IoT system images with seeded vulnerability universes, detector engines
// with configurable capability (the DC_i of paper §VI-B), the third-party
// scanning services of Table I, attack engines (forgery, plagiarism), and
// the ground-truth AutoVerif implementation (paper Eq. 6) that IoT
// providers use to verify detection reports.
//
// The paper exercises its prototype against real Android IoT apps scanned
// by commercial services; this package substitutes a synthetic
// vulnerability universe that reproduces the same statistics: per-service
// finding counts, partial cross-service overlap, and capability-
// proportional detection races.
package detection

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/types"
)

// Vulnerability is one ground-truth flaw in a system image.
type Vulnerability struct {
	// ID is the canonical identifier (what AutoVerif keys on).
	ID string
	// Severity is the risk class.
	Severity types.Severity
	// Subtlety in (0, 1] scales how hard the flaw is to find: it
	// lengthens a CapabilityEngine's mean discovery time by (1 + Subtlety)
	// and scales a FuzzingEngine's per-iteration hit rate by
	// (1 − Subtlety/2).
	Subtlety float64
}

// SystemImage is a released IoT system with its (hidden) ground truth.
type SystemImage struct {
	// Name and Version identify the release (U_n, U_v).
	Name    string
	Version string
	// Payload is the simulated binary; its hash is the SRA's U_h.
	Payload []byte
	// Vulns is the ground-truth vulnerability universe. Only AutoVerif
	// and the workload generator see it; detector engines must *search*.
	Vulns []Vulnerability
}

// Hash returns U_h for the image payload.
func (img *SystemImage) Hash() types.Hash { return types.HashBytes(img.Payload) }

// seed is the image's share of an engine's RNG seed: the first 8 bytes of
// U_h, so two images draw alike only if their hashes agree on 64 bits.
func (img *SystemImage) seed() int64 {
	h := img.Hash()
	return int64(binary.BigEndian.Uint64(h[:8]))
}

// UniverseSpec sizes a generated vulnerability universe.
type UniverseSpec struct {
	High, Medium, Low int
	// Seed drives deterministic generation.
	Seed int64
}

// GenerateImage builds a system image with a seeded universe. Identifiers
// are stable for a given (name, version, spec) so experiments reproduce.
func GenerateImage(name, version string, spec UniverseSpec) *SystemImage {
	rng := rand.New(rand.NewSource(spec.Seed))
	img := &SystemImage{
		Name:    name,
		Version: version,
		Payload: []byte(fmt.Sprintf("image:%s:%s:%d", name, version, spec.Seed)),
	}
	add := func(sev types.Severity, label string, count int) {
		for i := 0; i < count; i++ {
			img.Vulns = append(img.Vulns, Vulnerability{
				ID:       fmt.Sprintf("SC-%s-%s-%s-%03d", name, version, label, i),
				Severity: sev,
				Subtlety: 0.1 + 0.8*rng.Float64(),
			})
		}
	}
	add(types.SeverityHigh, "H", spec.High)
	add(types.SeverityMedium, "M", spec.Medium)
	add(types.SeverityLow, "L", spec.Low)
	return img
}

// Detection is one engine finding with the simulated time the engine
// needed to uncover it (drives first-reporter races).
type Detection struct {
	Finding types.Finding
	// After is the search time from release to discovery.
	After time.Duration
}

// Engine is a detector's analysis capability: given an image it returns
// the vulnerabilities it manages to uncover. Engines stand in for the
// paper's examples (Vigilante/CloudAV engines or services like Quixxi).
type Engine interface {
	// Scan searches the image and reports discoveries.
	Scan(img *SystemImage) []Detection
}

// CapabilityEngine is the DC_i model of paper §VI-B: it finds each
// vulnerability with probability Capability, so a crowd of m engines
// covers 1 − (1 − DC_i)^m of an image (Eq. 11), in exponential time with
// mean MeanFindTime·(1 + Subtlety)/Speed: subtle flaws take longer to find
// but are not missed outright, and more threads mean faster detection.
type CapabilityEngine struct {
	// Name labels the detector.
	Name string
	// Capability in [0, 1] is DC_i: the per-vulnerability discovery
	// probability.
	Capability float64
	// Speed scales search rate; the paper varies detector threads 1-8.
	Speed float64
	// MeanFindTime is the average time a Speed-1 engine needs per
	// discovery.
	MeanFindTime time.Duration
	// Seed makes scans deterministic.
	Seed int64
}

var _ Engine = (*CapabilityEngine)(nil)

// Scan implements Engine.
func (e *CapabilityEngine) Scan(img *SystemImage) []Detection {
	rng := rand.New(rand.NewSource(e.Seed ^ img.seed()))
	speed := e.Speed
	if speed <= 0 {
		speed = 1
	}
	mean := e.MeanFindTime
	if mean <= 0 {
		mean = time.Minute
	}
	var out []Detection
	for _, v := range img.Vulns {
		if rng.Float64() >= e.Capability {
			continue
		}
		after := time.Duration(rng.ExpFloat64() * float64(mean) * (1 + v.Subtlety) / speed)
		out = append(out, Detection{
			Finding: types.Finding{
				VulnID:   v.ID,
				Severity: v.Severity,
				Evidence: fmt.Sprintf("found by %s after %s", e.Name, after.Round(time.Millisecond)),
			},
			After: after,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].After < out[j].After })
	return out
}

// ForgingEngine fabricates findings that do not exist in the image — the
// compromised detector of paper §III-A that "declares a forged detection
// report without even having detected the IoT system". AutoVerif must
// reject every one of its findings.
type ForgingEngine struct {
	// Name labels the attacker.
	Name string
	// Count is how many fake findings to fabricate per scan.
	Count int
}

var _ Engine = (*ForgingEngine)(nil)

// Scan implements Engine by inventing vulnerabilities.
func (e *ForgingEngine) Scan(img *SystemImage) []Detection {
	out := make([]Detection, 0, e.Count)
	for i := 0; i < e.Count; i++ {
		out = append(out, Detection{
			Finding: types.Finding{
				VulnID:   fmt.Sprintf("FORGED-%s-%03d", e.Name, i),
				Severity: types.SeverityHigh,
				Evidence: "fabricated",
			},
			After: time.Millisecond, // forging is instant
		})
	}
	return out
}

// PlagiarizingEngine performs no analysis; it copies whatever findings it
// has observed from other detectors' revealed reports (paper §III-A:
// "plagiarize detection results of benign detectors").
type PlagiarizingEngine struct {
	// Name labels the attacker.
	Name string
	// Observed is the stolen finding set, updated as reveals are seen.
	Observed []types.Finding
}

var _ Engine = (*PlagiarizingEngine)(nil)

// Observe records findings gleaned from the victim's revealed reports.
func (e *PlagiarizingEngine) Observe(findings []types.Finding) {
	e.Observed = append(e.Observed, findings...)
}

// Scan implements Engine by replaying stolen findings.
func (e *PlagiarizingEngine) Scan(*SystemImage) []Detection {
	out := make([]Detection, len(e.Observed))
	for i, f := range e.Observed {
		out[i] = Detection{Finding: f, After: time.Millisecond}
	}
	return out
}
