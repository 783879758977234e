package types

import (
	"errors"
	"fmt"

	"github.com/smartcrowd/smartcrowd/internal/crypto/secp256k1"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// InitialReport is R† (paper Eq. 3), the first phase of the two-phase
// report submission:
//
//	R† = {ID†, Δ, D_i, H_{R*}, W_{D_i}, D†_Sign}
//
// It commits to the detailed report's hash without revealing findings,
// which timestamps the discovery and defeats plagiarism: a thief who sees a
// revealed R* cannot retroactively produce an earlier-chained commitment.
type InitialReport struct {
	// SRAID references Δ by its identifier.
	SRAID Hash
	// Detector is D_i, the reporting detector's identity.
	Detector Address
	// DetailHash is H_{R*}, the hash commitment to the detailed report.
	DetailHash Hash
	// Wallet is W_{D_i}, the payee address for incentives.
	Wallet Address
	// ID is ID† = H(Δ || D_i || H_{R*} || W_{D_i}).
	ID Hash
	// Sig is D†_Sign = Sign_{sk_{D_i}}(ID†) (paper Eq. 4).
	Sig secp256k1.Signature
}

// DetailedReport is R* (paper Eq. 5), the second phase revealed only after
// R† is confirmed in the blockchain:
//
//	R* = {ID*, Δ, D_i, W_{D_i}, Des, D*_Sign}
type DetailedReport struct {
	// SRAID references Δ by its identifier.
	SRAID Hash
	// Detector is D_i.
	Detector Address
	// Wallet is W_{D_i}.
	Wallet Address
	// Findings is Des, the discovered vulnerabilities.
	Findings []Finding
	// ID is ID* = H(Δ || D_i || W_{D_i} || Des).
	ID Hash
	// Sig is D*_Sign.
	Sig secp256k1.Signature
}

// Report verification errors (Algorithm 1 of the paper).
var (
	ErrReportBadID        = errors.New("types: report identifier does not match contents")
	ErrReportBadSignature = errors.New("types: report signature invalid or not by detector")
	ErrReportNoFindings   = errors.New("types: detailed report lists no findings")
	ErrReportBadFinding   = errors.New("types: detailed report contains malformed finding")
)

// ComputeID derives ID† per Eq. 3.
func (r *InitialReport) ComputeID() Hash {
	return HashConcat(r.SRAID[:], r.Detector[:], r.DetailHash[:], r.Wallet[:])
}

// SignInitialReport fills in ID† and the detector signature.
func SignInitialReport(r *InitialReport, w *wallet.Wallet) error {
	if w.Address() != r.Detector {
		return fmt.Errorf("types: signing R† for %s with wallet %s", r.Detector, w.Address())
	}
	r.ID = r.ComputeID()
	sig, err := w.SignDigest(r.ID)
	if err != nil {
		return fmt.Errorf("types: sign initial report: %w", err)
	}
	r.Sig = sig
	return nil
}

// Verify implements the first half of Algorithm 1: recompute ID† and check
// the detector's signature. Failing reports are dropped.
func (r *InitialReport) Verify() error {
	if r.ComputeID() != r.ID {
		return ErrReportBadID
	}
	if !wallet.VerifyDigest(r.Detector, r.ID, r.Sig) {
		return ErrReportBadSignature
	}
	return nil
}

// ComputeID derives ID* per Eq. 5.
func (r *DetailedReport) ComputeID() Hash {
	des := HashFindings(r.Findings)
	return HashConcat(r.SRAID[:], r.Detector[:], r.Wallet[:], des[:])
}

// CommitmentHash is H(R*), the value a detector must place in its initial
// report's DetailHash field. It covers the full revealed content.
func (r *DetailedReport) CommitmentHash() Hash {
	des := HashFindings(r.Findings)
	return HashConcat(r.SRAID[:], r.Detector[:], r.Wallet[:], des[:], []byte("commit"))
}

// SignDetailedReport fills in ID* and the detector signature.
func SignDetailedReport(r *DetailedReport, w *wallet.Wallet) error {
	if w.Address() != r.Detector {
		return fmt.Errorf("types: signing R* for %s with wallet %s", r.Detector, w.Address())
	}
	r.ID = r.ComputeID()
	sig, err := w.SignDigest(r.ID)
	if err != nil {
		return fmt.Errorf("types: sign detailed report: %w", err)
	}
	r.Sig = sig
	return nil
}

// Verify implements the second half of Algorithm 1, minus AutoVerif (which
// needs the detection substrate): recompute ID*, check the signature, and
// validate finding structure.
func (r *DetailedReport) Verify() error {
	if len(r.Findings) == 0 {
		return ErrReportNoFindings
	}
	for _, f := range r.Findings {
		if f.VulnID == "" || !f.Severity.Valid() || len(f.VulnID) > 255 {
			return ErrReportBadFinding
		}
	}
	if r.ComputeID() != r.ID {
		return ErrReportBadID
	}
	if !wallet.VerifyDigest(r.Detector, r.ID, r.Sig) {
		return ErrReportBadSignature
	}
	return nil
}

// --- payload encoding ---

func (r *InitialReport) encodePayload() []byte {
	var buf []byte
	buf = append(buf, r.SRAID[:]...)
	buf = append(buf, r.Detector[:]...)
	buf = append(buf, r.DetailHash[:]...)
	buf = append(buf, r.Wallet[:]...)
	buf = append(buf, r.ID[:]...)
	return appendSig(buf, &r.Sig)
}

func decodeInitialReport(data []byte) (*InitialReport, error) {
	d := decoder{buf: data}
	var r InitialReport
	d.bytes(r.SRAID[:])
	d.bytes(r.Detector[:])
	d.bytes(r.DetailHash[:])
	d.bytes(r.Wallet[:])
	d.bytes(r.ID[:])
	d.sig(&r.Sig)
	if d.err != nil {
		return nil, fmt.Errorf("types: decode initial report: %w", d.err)
	}
	if len(d.buf) != 0 {
		return nil, errors.New("types: decode initial report: trailing bytes")
	}
	return &r, nil
}

func (r *DetailedReport) encodePayload() []byte {
	var buf []byte
	buf = append(buf, r.SRAID[:]...)
	buf = append(buf, r.Detector[:]...)
	buf = append(buf, r.Wallet[:]...)
	buf = appendUint64(buf, uint64(len(r.Findings)))
	for _, f := range r.Findings {
		buf = appendUint64(buf, uint64(f.Severity))
		buf = appendString(buf, f.VulnID)
		buf = appendString(buf, f.Evidence)
	}
	buf = append(buf, r.ID[:]...)
	return appendSig(buf, &r.Sig)
}

func decodeDetailedReport(data []byte) (*DetailedReport, error) {
	d := decoder{buf: data}
	var r DetailedReport
	d.bytes(r.SRAID[:])
	d.bytes(r.Detector[:])
	d.bytes(r.Wallet[:])
	n := d.uint64()
	const maxFindings = 1 << 16
	if d.err == nil && n > maxFindings {
		return nil, fmt.Errorf("types: decode detailed report: %d findings exceeds limit", n)
	}
	if d.err == nil {
		r.Findings = make([]Finding, 0, n)
		for i := uint64(0); i < n && d.err == nil; i++ {
			f := Finding{
				Severity: Severity(d.uint64()),
				VulnID:   d.string(),
				Evidence: d.string(),
			}
			r.Findings = append(r.Findings, f)
		}
	}
	d.bytes(r.ID[:])
	d.sig(&r.Sig)
	if d.err != nil {
		return nil, fmt.Errorf("types: decode detailed report: %w", d.err)
	}
	if len(d.buf) != 0 {
		return nil, errors.New("types: decode detailed report: trailing bytes")
	}
	return &r, nil
}
