package detection

import (
	"sync"

	"github.com/smartcrowd/smartcrowd/internal/contract"
	"github.com/smartcrowd/smartcrowd/internal/types"
)

// GroundTruthVerifier is the reference AutoVerif implementation (paper
// Eq. 6): a finding verifies if and only if the claimed vulnerability
// exists in the released image. It is the strongest faithful instantiation
// of the paper's "machine-automatical verification engine" — providers in
// the paper plug in CloudAV analysis engines or Vigilante SCA verification,
// both of which re-establish ground truth by re-execution.
//
// It also publishes each registered image at its download link: Image is
// the in-process source detectors download a release from, by U_h.
type GroundTruthVerifier struct {
	mu     sync.RWMutex
	truth  map[types.Hash]map[string]types.Severity // SRA id → vuln id → severity
	images map[types.Hash]*SystemImage              // U_h → image
	strict bool
}

var _ contract.Verifier = (*GroundTruthVerifier)(nil)

// NewGroundTruthVerifier creates an empty verifier. With strict severity
// checking, a finding must also state the correct severity class.
func NewGroundTruthVerifier(strictSeverity bool) *GroundTruthVerifier {
	return &GroundTruthVerifier{
		truth:  make(map[types.Hash]map[string]types.Severity),
		images: make(map[types.Hash]*SystemImage),
		strict: strictSeverity,
	}
}

// Register associates a released image's ground truth with its SRA and
// publishes the image under its hash U_h.
func (v *GroundTruthVerifier) Register(sraID types.Hash, img *SystemImage) {
	h := img.Hash()
	v.mu.Lock()
	defer v.mu.Unlock()
	set := make(map[string]types.Severity, len(img.Vulns))
	for _, vuln := range img.Vulns {
		set[vuln.ID] = vuln.Severity
	}
	v.truth[sraID] = set
	v.images[h] = img
}

// Registered reports whether a release's ground truth was registered for
// the SRA sraID.
func (v *GroundTruthVerifier) Registered(sraID types.Hash) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	_, ok := v.truth[sraID]
	return ok
}

// Image returns the registered image whose hash is systemHash.
func (v *GroundTruthVerifier) Image(systemHash types.Hash) (*SystemImage, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	img, ok := v.images[systemHash]
	return img, ok
}

// AutoVerif implements contract.Verifier.
func (v *GroundTruthVerifier) AutoVerif(sraID types.Hash, finding types.Finding) bool {
	v.mu.RLock()
	defer v.mu.RUnlock()
	set, ok := v.truth[sraID]
	if !ok {
		return false
	}
	sev, ok := set[finding.VulnID]
	if !ok {
		return false
	}
	if v.strict && sev != finding.Severity {
		return false
	}
	return true
}
