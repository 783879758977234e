package contract

import (
	"errors"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/state"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// acceptAll is an AutoVerif engine that accepts every finding.
var acceptAll = VerifierFunc(func(types.Hash, types.Finding) bool { return true })

// fixture bundles a funded provider/detector pair with a registered SRA.
type fixture struct {
	st       *state.DB
	c        *Contract
	provider *wallet.Wallet
	detector *wallet.Wallet
	sra      *types.SRA
}

func newFixture(t *testing.T, verifier Verifier) *fixture {
	t.Helper()
	f := &fixture{
		st:       state.New(),
		c:        New(DefaultParams(), verifier),
		provider: wallet.NewDeterministic("provider"),
		detector: wallet.NewDeterministic("detector"),
	}
	_ = f.st.Credit(f.provider.Address(), types.EtherAmount(5000))
	_ = f.st.Credit(f.detector.Address(), types.EtherAmount(10))

	f.sra = &types.SRA{
		Provider:     f.provider.Address(),
		Name:         "smart-lock-fw",
		Version:      "1.0.0",
		SystemHash:   types.HashBytes([]byte("image")),
		DownloadLink: "sc://releases/smart-lock-fw/1.0.0",
		Insurance:    types.EtherAmount(1000),
		Bounty:       types.EtherAmount(5),
	}
	if err := types.SignSRA(f.sra, f.provider); err != nil {
		t.Fatal(err)
	}
	// Chain executor behaviour: move the insurance into escrow, then apply.
	if err := f.st.Transfer(f.provider.Address(), Address, f.sra.Insurance); err != nil {
		t.Fatal(err)
	}
	if err := f.c.ApplySRA(f.st, 1, f.sra); err != nil {
		t.Fatal(err)
	}
	return f
}

// claimedBy returns the wallet that first reported a vulnerability, or the
// zero address if it is unclaimed.
func (f *fixture) claimedBy(vulnID string) types.Address {
	return hashAddr(f.st.GetStorage(Address, sraPrefix(f.sra.ID).claim(vulnID)))
}

// submitPair walks a (R†, R*) pair through the two-phase protocol.
func (f *fixture) submitPair(t *testing.T, findings []types.Finding, commitBlock, revealBlock uint64) (Payout, error) {
	t.Helper()
	detailed := &types.DetailedReport{
		SRAID:    f.sra.ID,
		Detector: f.detector.Address(),
		Wallet:   f.detector.Address(),
		Findings: findings,
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
	if err := f.c.ApplyInitialReport(f.st, commitBlock, initial); err != nil {
		return Payout{}, err
	}
	return f.c.ApplyDetailedReport(f.st, revealBlock, detailed)
}

func findings(ids ...string) []types.Finding {
	out := make([]types.Finding, len(ids))
	for i, id := range ids {
		out[i] = types.Finding{VulnID: id, Severity: types.SeverityHigh, Evidence: "poc"}
	}
	return out
}

func TestSRARegistration(t *testing.T) {
	f := newFixture(t, acceptAll)
	info, err := f.c.GetSRA(f.st, f.sra.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Provider != f.provider.Address() {
		t.Error("provider not recorded")
	}
	if info.InsuranceRemaining != f.sra.Insurance {
		t.Errorf("insurance = %s, want %s", info.InsuranceRemaining, f.sra.Insurance)
	}
	if info.Bounty != f.sra.Bounty || info.ReleaseBlock != 1 || info.ConfirmedVulns != 0 {
		t.Errorf("SRA info wrong: %+v", info)
	}
}

func TestSRADuplicateRejected(t *testing.T) {
	f := newFixture(t, acceptAll)
	err := f.c.ApplySRA(f.st, 2, f.sra)
	if !errors.Is(err, ErrSRAExists) {
		t.Errorf("err = %v, want ErrSRAExists", err)
	}
}

func TestSRAEscrowMustBeFunded(t *testing.T) {
	st := state.New()
	c := New(DefaultParams(), acceptAll)
	provider := wallet.NewDeterministic("poor-provider")
	_ = st.Credit(provider.Address(), types.EtherAmount(2000))
	sra := &types.SRA{
		Provider:     provider.Address(),
		Name:         "x",
		Version:      "1",
		DownloadLink: "sc://x",
		Insurance:    types.EtherAmount(1000),
		Bounty:       types.EtherAmount(1),
	}
	if err := types.SignSRA(sra, provider); err != nil {
		t.Fatal(err)
	}
	// Provider "announces" insurance without transferring it.
	if err := c.ApplySRA(st, 1, sra); !errors.Is(err, ErrEscrowShort) {
		t.Errorf("err = %v, want ErrEscrowShort", err)
	}
}

func TestSRASpoofedRejected(t *testing.T) {
	f := newFixture(t, acceptAll)
	spoofed := *f.sra
	spoofed.Name = "different"
	if err := f.c.ApplySRA(f.st, 2, &spoofed); err == nil {
		t.Error("tampered SRA registered")
	}
}

func TestTwoPhasePayoutHappyPath(t *testing.T) {
	f := newFixture(t, acceptAll)
	before := f.st.Balance(f.detector.Address())
	payout, err := f.submitPair(t, findings("V-1", "V-2", "V-3"), 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if len(payout.Accepted) != 3 {
		t.Fatalf("accepted %d findings, want 3", len(payout.Accepted))
	}
	wantPaid := 3 * f.sra.Bounty
	if payout.Paid != wantPaid {
		t.Errorf("paid %s, want %s", payout.Paid, wantPaid)
	}
	if got := f.st.Balance(f.detector.Address()); got != before+wantPaid {
		t.Errorf("detector balance %s, want %s", got, before+wantPaid)
	}
	info, _ := f.c.GetSRA(f.st, f.sra.ID)
	if info.InsuranceRemaining != f.sra.Insurance-wantPaid {
		t.Errorf("insurance remaining %s", info.InsuranceRemaining)
	}
	if info.ConfirmedVulns != 3 {
		t.Errorf("confirmed vulns = %d, want 3", info.ConfirmedVulns)
	}
	for _, id := range []string{"V-1", "V-2", "V-3"} {
		if f.claimedBy(id) != f.detector.Address() {
			t.Errorf("%s not claimed by detector", id)
		}
	}
}

func TestRevealBeforeConfirmationRejected(t *testing.T) {
	f := newFixture(t, acceptAll)
	// CommitDepth=1: reveal in the same block as the commitment must fail.
	_, err := f.submitPair(t, findings("V-1"), 5, 5)
	if !errors.Is(err, ErrCommitNotReady) {
		t.Errorf("err = %v, want ErrCommitNotReady", err)
	}
}

func TestRevealWithoutCommitmentRejected(t *testing.T) {
	f := newFixture(t, acceptAll)
	detailed := &types.DetailedReport{
		SRAID:    f.sra.ID,
		Detector: f.detector.Address(),
		Wallet:   f.detector.Address(),
		Findings: findings("V-9"),
	}
	if err := types.SignDetailedReport(detailed, f.detector); err != nil {
		t.Fatal(err)
	}
	_, err := f.c.ApplyDetailedReport(f.st, 10, detailed)
	if !errors.Is(err, ErrCommitMissing) {
		t.Errorf("err = %v, want ErrCommitMissing", err)
	}
}

func TestForgedFindingsRejectedByAutoVerif(t *testing.T) {
	// AutoVerif rejects everything: the forger earns nothing but the
	// commitment is still consumed (the paper's cost-of-forgery property).
	rejectAll := VerifierFunc(func(types.Hash, types.Finding) bool { return false })
	f := newFixture(t, rejectAll)
	before := f.st.Balance(f.detector.Address())
	payout, err := f.submitPair(t, findings("FAKE-1", "FAKE-2"), 5, 6)
	if err != nil {
		t.Fatal(err)
	}
	if payout.Paid != 0 || len(payout.Accepted) != 0 {
		t.Errorf("forged report paid %s", payout.Paid)
	}
	if payout.RejectedForged != 2 {
		t.Errorf("RejectedForged = %d, want 2", payout.RejectedForged)
	}
	if f.st.Balance(f.detector.Address()) != before {
		t.Error("forger's balance changed")
	}
}

func TestDuplicateClaimGoesToFirstReporter(t *testing.T) {
	f := newFixture(t, acceptAll)
	// First detector claims V-1.
	if _, err := f.submitPair(t, findings("V-1"), 5, 6); err != nil {
		t.Fatal(err)
	}
	// Second detector reports the same vulnerability later.
	second := wallet.NewDeterministic("detector-2")
	_ = f.st.Credit(second.Address(), types.EtherAmount(10))
	detailed := &types.DetailedReport{
		SRAID:    f.sra.ID,
		Detector: second.Address(),
		Wallet:   second.Address(),
		Findings: findings("V-1"),
	}
	if err := types.SignDetailedReport(detailed, second); err != nil {
		t.Fatal(err)
	}
	initial := &types.InitialReport{
		SRAID:      f.sra.ID,
		Detector:   second.Address(),
		DetailHash: detailed.CommitmentHash(),
		Wallet:     second.Address(),
	}
	if err := types.SignInitialReport(initial, second); err != nil {
		t.Fatal(err)
	}
	if err := f.c.ApplyInitialReport(f.st, 7, initial); err != nil {
		t.Fatal(err)
	}
	payout, err := f.c.ApplyDetailedReport(f.st, 8, detailed)
	if err != nil {
		t.Fatal(err)
	}
	if payout.Paid != 0 || payout.RejectedDuplicate != 1 {
		t.Errorf("duplicate claim paid %s (dup=%d)", payout.Paid, payout.RejectedDuplicate)
	}
	if f.claimedBy("V-1") != f.detector.Address() {
		t.Error("claim reassigned away from first reporter")
	}
}

func TestPlagiarismDefeated(t *testing.T) {
	// The plagiarist watches the honest reveal and races a copy — but has
	// no prior commitment, so the contract rejects it.
	f := newFixture(t, acceptAll)
	honest := findings("V-7")
	if _, err := f.submitPair(t, honest, 5, 6); err != nil {
		t.Fatal(err)
	}

	thief := wallet.NewDeterministic("thief")
	_ = f.st.Credit(thief.Address(), types.EtherAmount(10))
	stolen := &types.DetailedReport{
		SRAID:    f.sra.ID,
		Detector: thief.Address(),
		Wallet:   thief.Address(),
		Findings: honest,
	}
	if err := types.SignDetailedReport(stolen, thief); err != nil {
		t.Fatal(err)
	}
	if _, err := f.c.ApplyDetailedReport(f.st, 9, stolen); !errors.Is(err, ErrCommitMissing) {
		t.Errorf("plagiarized reveal: err = %v, want ErrCommitMissing", err)
	}
}

func TestCommitmentTheftDefeated(t *testing.T) {
	// A thief who sees an honest R† in the mempool cannot reveal against
	// it: the commitment owner must match the revealing detector.
	f := newFixture(t, acceptAll)
	detailed := &types.DetailedReport{
		SRAID:    f.sra.ID,
		Detector: f.detector.Address(),
		Wallet:   f.detector.Address(),
		Findings: findings("V-5"),
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
	if err := f.c.ApplyInitialReport(f.st, 5, initial); err != nil {
		t.Fatal(err)
	}

	thief := wallet.NewDeterministic("thief")
	stolen := &types.DetailedReport{
		SRAID:    f.sra.ID,
		Detector: thief.Address(),
		Wallet:   thief.Address(),
		Findings: detailed.Findings,
	}
	if err := types.SignDetailedReport(stolen, thief); err != nil {
		t.Fatal(err)
	}
	// The thief's reveal hashes to a different commitment (identity is
	// inside the hash), so the contract sees no commitment at all.
	if _, err := f.c.ApplyDetailedReport(f.st, 6, stolen); !errors.Is(err, ErrCommitMissing) {
		t.Errorf("stolen reveal: err = %v, want ErrCommitMissing", err)
	}
}

func TestDoubleRevealRejected(t *testing.T) {
	f := newFixture(t, acceptAll)
	detailed := &types.DetailedReport{
		SRAID:    f.sra.ID,
		Detector: f.detector.Address(),
		Wallet:   f.detector.Address(),
		Findings: findings("V-1"),
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
	if err := f.c.ApplyInitialReport(f.st, 5, initial); err != nil {
		t.Fatal(err)
	}
	if _, err := f.c.ApplyDetailedReport(f.st, 6, detailed); err != nil {
		t.Fatal(err)
	}
	// Same reveal again: commitment consumed.
	if _, err := f.c.ApplyDetailedReport(f.st, 7, detailed); !errors.Is(err, ErrCommitMissing) {
		t.Errorf("double reveal: err = %v, want ErrCommitMissing", err)
	}
}

func TestDuplicateCommitmentRejected(t *testing.T) {
	f := newFixture(t, acceptAll)
	detailed := &types.DetailedReport{
		SRAID:    f.sra.ID,
		Detector: f.detector.Address(),
		Wallet:   f.detector.Address(),
		Findings: findings("V-1"),
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
	if err := f.c.ApplyInitialReport(f.st, 5, initial); err != nil {
		t.Fatal(err)
	}
	if err := f.c.ApplyInitialReport(f.st, 6, initial); !errors.Is(err, ErrCommitExists) {
		t.Errorf("duplicate commitment: err = %v, want ErrCommitExists", err)
	}
}

func TestInsuranceExhaustion(t *testing.T) {
	// Bounty 5, insurance 12: the third accepted finding only gets the
	// remaining 2 ether and the escrow never goes negative.
	st := state.New()
	c := New(DefaultParams(), acceptAll)
	provider := wallet.NewDeterministic("provider")
	detector := wallet.NewDeterministic("detector")
	_ = st.Credit(provider.Address(), types.EtherAmount(100))
	sra := &types.SRA{
		Provider:     provider.Address(),
		Name:         "thin-escrow",
		Version:      "1",
		DownloadLink: "sc://x",
		Insurance:    types.EtherAmount(12),
		Bounty:       types.EtherAmount(5),
	}
	if err := types.SignSRA(sra, provider); err != nil {
		t.Fatal(err)
	}
	_ = st.Transfer(provider.Address(), Address, sra.Insurance)
	if err := c.ApplySRA(st, 1, sra); err != nil {
		t.Fatal(err)
	}

	detailed := &types.DetailedReport{
		SRAID:    sra.ID,
		Detector: detector.Address(),
		Wallet:   detector.Address(),
		Findings: findings("V-1", "V-2", "V-3", "V-4"),
	}
	if err := types.SignDetailedReport(detailed, detector); err != nil {
		t.Fatal(err)
	}
	initial := &types.InitialReport{
		SRAID:      sra.ID,
		Detector:   detector.Address(),
		DetailHash: detailed.CommitmentHash(),
		Wallet:     detector.Address(),
	}
	if err := types.SignInitialReport(initial, detector); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplyInitialReport(st, 2, initial); err != nil {
		t.Fatal(err)
	}
	payout, err := c.ApplyDetailedReport(st, 3, detailed)
	if err != nil {
		t.Fatal(err)
	}
	if payout.Paid != types.EtherAmount(12) {
		t.Errorf("paid %s, want all 12 ether of insurance", payout.Paid)
	}
	info, _ := c.GetSRA(st, sra.ID)
	if info.InsuranceRemaining != 0 {
		t.Errorf("insurance remaining %s, want 0", info.InsuranceRemaining)
	}
	if st.Balance(Address) != 0 {
		t.Errorf("contract still holds %s", st.Balance(Address))
	}
}

func TestRefundAfterWindow(t *testing.T) {
	f := newFixture(t, acceptAll)
	window := f.c.params.DetectionWindow

	// Too early.
	if _, err := f.c.Refund(f.st, window, f.sra.ID, f.provider.Address()); !errors.Is(err, ErrWindowOpen) {
		t.Errorf("early refund: err = %v, want ErrWindowOpen", err)
	}
	// Wrong caller.
	if _, err := f.c.Refund(f.st, 1+window, f.sra.ID, f.detector.Address()); !errors.Is(err, ErrNotProvider) {
		t.Errorf("foreign refund: err = %v, want ErrNotProvider", err)
	}
	// Pay out one bounty first.
	if _, err := f.submitPair(t, findings("V-1"), 5, 6); err != nil {
		t.Fatal(err)
	}
	before := f.st.Balance(f.provider.Address())
	refund, err := f.c.Refund(f.st, 1+window, f.sra.ID, f.provider.Address())
	if err != nil {
		t.Fatal(err)
	}
	want := f.sra.Insurance - f.sra.Bounty
	if refund != want {
		t.Errorf("refund %s, want %s", refund, want)
	}
	if f.st.Balance(f.provider.Address()) != before+want {
		t.Error("refund not credited")
	}
	// Second refund pays nothing.
	again, err := f.c.Refund(f.st, 2+window, f.sra.ID, f.provider.Address())
	if err != nil || again != 0 {
		t.Errorf("double refund = %s, err %v", again, err)
	}
}

func TestReportForUnknownSRARejected(t *testing.T) {
	f := newFixture(t, acceptAll)
	ghostID := types.HashBytes([]byte("ghost"))
	initial := &types.InitialReport{
		SRAID:      ghostID,
		Detector:   f.detector.Address(),
		DetailHash: types.HashBytes([]byte("x")),
		Wallet:     f.detector.Address(),
	}
	if err := types.SignInitialReport(initial, f.detector); err != nil {
		t.Fatal(err)
	}
	if err := f.c.ApplyInitialReport(f.st, 5, initial); !errors.Is(err, ErrSRAUnknown) {
		t.Errorf("err = %v, want ErrSRAUnknown", err)
	}
}

func TestNoVerifierConfigured(t *testing.T) {
	f := newFixture(t, nil)
	_, err := f.submitPair(t, findings("V-1"), 5, 6)
	if !errors.Is(err, ErrNoVerifier) {
		t.Errorf("err = %v, want ErrNoVerifier", err)
	}
}

func TestEscrowTotalAcrossSRAs(t *testing.T) {
	// Two providers escrow simultaneously; each SRA only spends its own
	// insurance.
	f := newFixture(t, acceptAll)
	p2 := wallet.NewDeterministic("provider-2")
	_ = f.st.Credit(p2.Address(), types.EtherAmount(500))
	sra2 := &types.SRA{
		Provider:     p2.Address(),
		Name:         "other-fw",
		Version:      "2",
		DownloadLink: "sc://y",
		Insurance:    types.EtherAmount(300),
		Bounty:       types.EtherAmount(2),
	}
	if err := types.SignSRA(sra2, p2); err != nil {
		t.Fatal(err)
	}
	_ = f.st.Transfer(p2.Address(), Address, sra2.Insurance)
	if err := f.c.ApplySRA(f.st, 2, sra2); err != nil {
		t.Fatal(err)
	}

	// Drain SRA1 partially; SRA2 must be untouched.
	if _, err := f.submitPair(t, findings("V-1", "V-2"), 5, 6); err != nil {
		t.Fatal(err)
	}
	info2, _ := f.c.GetSRA(f.st, sra2.ID)
	if info2.InsuranceRemaining != sra2.Insurance {
		t.Errorf("SRA2 insurance %s, want untouched %s", info2.InsuranceRemaining, sra2.Insurance)
	}
}
