package types

import (
	"errors"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// buildReportPair creates a linked (R†, R*) pair for a detector, as the
// two-phase submission protocol produces them.
func buildReportPair(t *testing.T, detector *wallet.Wallet, sraID Hash, findings []Finding) (*InitialReport, *DetailedReport) {
	t.Helper()
	detailed := &DetailedReport{
		SRAID:    sraID,
		Detector: detector.Address(),
		Wallet:   detector.Address(),
		Findings: findings,
	}
	if err := SignDetailedReport(detailed, detector); err != nil {
		t.Fatal(err)
	}
	initial := &InitialReport{
		SRAID:      sraID,
		Detector:   detector.Address(),
		DetailHash: detailed.CommitmentHash(),
		Wallet:     detector.Address(),
	}
	if err := SignInitialReport(initial, detector); err != nil {
		t.Fatal(err)
	}
	return initial, detailed
}

func sampleFindings() []Finding {
	return []Finding{
		{VulnID: "SC-2019-0001", Severity: SeverityHigh, Evidence: "stack overflow in parser"},
		{VulnID: "SC-2019-0002", Severity: SeverityMedium, Evidence: "weak default credentials"},
	}
}

func TestReportPairVerifies(t *testing.T) {
	d := wallet.NewDeterministic("detector-1")
	sraID := HashBytes([]byte("sra"))
	initial, detailed := buildReportPair(t, d, sraID, sampleFindings())
	if err := initial.Verify(); err != nil {
		t.Errorf("valid R† rejected: %v", err)
	}
	if err := detailed.Verify(); err != nil {
		t.Errorf("valid R* rejected: %v", err)
	}
	if err := detailed.VerifyAgainstCommitment(initial); err != nil {
		t.Errorf("R* does not match its own R† commitment: %v", err)
	}
}

func TestTamperedInitialReportRejected(t *testing.T) {
	d := wallet.NewDeterministic("detector-1")
	sraID := HashBytes([]byte("sra"))
	initial, _ := buildReportPair(t, d, sraID, sampleFindings())

	t.Run("redirected payee wallet", func(t *testing.T) {
		// A compromised node tries to redirect the detector's incentives.
		attacker := wallet.NewDeterministic("thief")
		mutated := *initial
		mutated.Wallet = attacker.Address()
		if err := mutated.Verify(); !errors.Is(err, ErrReportBadID) {
			t.Errorf("wallet redirection verified: err = %v", err)
		}
	})

	t.Run("swapped commitment", func(t *testing.T) {
		mutated := *initial
		mutated.DetailHash = HashBytes([]byte("other"))
		if err := mutated.Verify(); !errors.Is(err, ErrReportBadID) {
			t.Errorf("commitment swap verified: err = %v", err)
		}
	})

	t.Run("forged signature", func(t *testing.T) {
		attacker := wallet.NewDeterministic("thief")
		mutated := *initial
		sig, err := attacker.SignDigest(mutated.ID)
		if err != nil {
			t.Fatal(err)
		}
		mutated.Sig = sig
		if err := mutated.Verify(); !errors.Is(err, ErrReportBadSignature) {
			t.Errorf("forged signature verified: err = %v", err)
		}
	})
}

func TestTamperedDetailedReportRejected(t *testing.T) {
	d := wallet.NewDeterministic("detector-1")
	sraID := HashBytes([]byte("sra"))
	_, detailed := buildReportPair(t, d, sraID, sampleFindings())

	t.Run("injected finding", func(t *testing.T) {
		mutated := *detailed
		mutated.Findings = append([]Finding{}, detailed.Findings...)
		mutated.Findings = append(mutated.Findings, Finding{VulnID: "FAKE-1", Severity: SeverityLow})
		if err := mutated.Verify(); !errors.Is(err, ErrReportBadID) {
			t.Errorf("finding injection verified: err = %v", err)
		}
	})

	t.Run("empty findings", func(t *testing.T) {
		mutated := *detailed
		mutated.Findings = nil
		if err := mutated.Verify(); !errors.Is(err, ErrReportNoFindings) {
			t.Errorf("empty report: err = %v", err)
		}
	})

	t.Run("malformed severity", func(t *testing.T) {
		mutated := *detailed
		mutated.Findings = []Finding{{VulnID: "X", Severity: Severity(9)}}
		if err := mutated.Verify(); !errors.Is(err, ErrReportBadFinding) {
			t.Errorf("bad severity: err = %v", err)
		}
	})
}

// TestPlagiarismStructure demonstrates the anti-plagiarism property at the
// data-structure level: a plagiarist who copies a revealed R* cannot bind
// it to its own identity without the commitment breaking.
func TestPlagiarismStructure(t *testing.T) {
	honest := wallet.NewDeterministic("honest-detector")
	thief := wallet.NewDeterministic("plagiarist")
	sraID := HashBytes([]byte("sra"))
	_, revealed := buildReportPair(t, honest, sraID, sampleFindings())

	// The thief republishes the findings under its own identity...
	stolen := &DetailedReport{
		SRAID:    sraID,
		Detector: thief.Address(),
		Wallet:   thief.Address(),
		Findings: revealed.Findings,
	}
	if err := SignDetailedReport(stolen, thief); err != nil {
		t.Fatal(err)
	}
	// ...the stolen report is internally valid (ECDSA cannot prevent that),
	if err := stolen.Verify(); err != nil {
		t.Fatalf("internally consistent stolen report rejected: %v", err)
	}
	// ...but it can never match the honest detector's chained commitment,
	honestInitial := &InitialReport{
		SRAID:      sraID,
		Detector:   honest.Address(),
		DetailHash: revealed.CommitmentHash(),
		Wallet:     honest.Address(),
	}
	if err := SignInitialReport(honestInitial, honest); err != nil {
		t.Fatal(err)
	}
	if err := stolen.VerifyAgainstCommitment(honestInitial); err == nil {
		t.Error("stolen R* matched the victim's commitment")
	}
	// ...and the thief has no earlier commitment of its own — the protocol
	// layer (contract package) enforces that R* without a prior confirmed
	// R† earns nothing. Here we verify the commitment hash binds identity:
	if stolen.CommitmentHash() == revealed.CommitmentHash() {
		t.Error("commitment hash does not bind the detector identity")
	}
}

func TestCommitmentDiffersFromID(t *testing.T) {
	d := wallet.NewDeterministic("detector-1")
	_, detailed := buildReportPair(t, d, HashBytes([]byte("sra")), sampleFindings())
	if detailed.CommitmentHash() == detailed.ID {
		t.Error("commitment hash must be domain-separated from ID*")
	}
}

func TestVerifyAgainstCommitmentFieldMismatches(t *testing.T) {
	d := wallet.NewDeterministic("detector-1")
	sraID := HashBytes([]byte("sra"))
	initial, detailed := buildReportPair(t, d, sraID, sampleFindings())

	other := *detailed
	other.SRAID = HashBytes([]byte("different-sra"))
	if err := other.VerifyAgainstCommitment(initial); !errors.Is(err, ErrDetailHashMismatch) {
		t.Errorf("cross-SRA replay: err = %v", err)
	}
}

func TestReportPayloadRoundtrips(t *testing.T) {
	d := wallet.NewDeterministic("detector-1")
	sraID := HashBytes([]byte("sra"))
	initial, detailed := buildReportPair(t, d, sraID, sampleFindings())

	ri, err := decodeInitialReport(initial.encodePayload())
	if err != nil {
		t.Fatalf("decodeInitialReport: %v", err)
	}
	if err := ri.Verify(); err != nil {
		t.Errorf("roundtripped R† invalid: %v", err)
	}
	if ri.DetailHash != initial.DetailHash || ri.Wallet != initial.Wallet {
		t.Error("R† roundtrip lost fields")
	}

	rd, err := decodeDetailedReport(detailed.encodePayload())
	if err != nil {
		t.Fatalf("decodeDetailedReport: %v", err)
	}
	if err := rd.Verify(); err != nil {
		t.Errorf("roundtripped R* invalid: %v", err)
	}
	if len(rd.Findings) != len(detailed.Findings) {
		t.Fatalf("R* roundtrip: %d findings, want %d", len(rd.Findings), len(detailed.Findings))
	}
	for i := range rd.Findings {
		if rd.Findings[i] != detailed.Findings[i] {
			t.Errorf("finding %d mismatch after roundtrip", i)
		}
	}
}

func TestReportPayloadRejectsTruncation(t *testing.T) {
	d := wallet.NewDeterministic("detector-1")
	initial, detailed := buildReportPair(t, d, HashBytes([]byte("sra")), sampleFindings())
	ip := initial.encodePayload()
	dp := detailed.encodePayload()
	for _, n := range []int{0, 10, len(ip) - 1} {
		if _, err := decodeInitialReport(ip[:n]); err == nil {
			t.Errorf("decodeInitialReport accepted %d-byte truncation", n)
		}
	}
	for _, n := range []int{0, 10, len(dp) - 1} {
		if _, err := decodeDetailedReport(dp[:n]); err == nil {
			t.Errorf("decodeDetailedReport accepted %d-byte truncation", n)
		}
	}
	if _, err := decodeDetailedReport(append(dp, 1)); err == nil {
		t.Error("decodeDetailedReport accepted trailing bytes")
	}
}

func TestDecodeDetailedReportFindingBomb(t *testing.T) {
	// A payload claiming 2^40 findings must fail fast, not allocate.
	var buf []byte
	var h Hash
	var a Address
	buf = append(buf, h[:]...)
	buf = append(buf, a[:]...)
	buf = append(buf, a[:]...)
	buf = appendUint64(buf, 1<<40)
	if _, err := decodeDetailedReport(buf); err == nil {
		t.Error("finding bomb accepted")
	}
}

func TestHashFindingsOrderSensitive(t *testing.T) {
	f := sampleFindings()
	swapped := []Finding{f[1], f[0]}
	if HashFindings(f) == HashFindings(swapped) {
		t.Error("HashFindings is order-insensitive")
	}
}

func TestSignReportWrongWallet(t *testing.T) {
	d := wallet.NewDeterministic("detector-1")
	other := wallet.NewDeterministic("other")
	r := &InitialReport{Detector: d.Address()}
	if err := SignInitialReport(r, other); err == nil {
		t.Error("SignInitialReport accepted foreign wallet")
	}
	dr := &DetailedReport{Detector: d.Address(), Findings: sampleFindings()}
	if err := SignDetailedReport(dr, other); err == nil {
		t.Error("SignDetailedReport accepted foreign wallet")
	}
}

// ErrDetailHashMismatch is VerifyAgainstCommitment's verdict; on chain
// the contract enforces the same rule on its own.
var ErrDetailHashMismatch = errors.New("types: detailed report does not match initial commitment H_R*")

// VerifyAgainstCommitment checks H_{R*} from the chained initial report
// against the revealed detailed report (Algorithm 1, line 14).
func (r *DetailedReport) VerifyAgainstCommitment(initial *InitialReport) error {
	if initial.SRAID != r.SRAID || initial.Detector != r.Detector || initial.Wallet != r.Wallet {
		return ErrDetailHashMismatch
	}
	if r.CommitmentHash() != initial.DetailHash {
		return ErrDetailHashMismatch
	}
	return nil
}
