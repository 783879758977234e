package contract

import (
	"bytes"
	"errors"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/state"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// recordingState is a state that remembers every contract slot written.
type recordingState struct {
	*state.DB
	written []types.Hash
}

func (r *recordingState) SetStorage(addr types.Address, key, value types.Hash) {
	if addr == Address {
		r.written = append(r.written, key)
	}
	r.DB.SetStorage(addr, key, value)
}

// TestSRARecordIsOneSubtree pins the storage layout: every slot one
// SRA → R† → R* → Refund lifecycle writes lies under the SRA's prefix,
// its commitment's or the global record's (the escrow total and SRA count,
// and the SRA listing), so each record is one subtree of the storage trie;
// and record prefixes do not collide across kinds or ids.
func TestSRARecordIsOneSubtree(t *testing.T) {
	st := &recordingState{DB: state.New()}
	c := New(DefaultParams(), acceptAll)
	provider, detector := wallet.NewDeterministic("layout-p"), wallet.NewDeterministic("layout-d")
	_ = st.Credit(provider.Address(), types.EtherAmount(100))
	sra := &types.SRA{
		Provider:     provider.Address(),
		Name:         "hub-fw",
		Version:      "2.0",
		SystemHash:   types.HashBytes([]byte("hub")),
		DownloadLink: "sc://releases/hub-fw/2.0",
		Insurance:    types.EtherAmount(50),
		Bounty:       types.EtherAmount(5),
	}
	if err := types.SignSRA(sra, provider); err != nil {
		t.Fatal(err)
	}
	if err := st.Transfer(provider.Address(), Address, sra.Insurance); err != nil {
		t.Fatal(err)
	}
	if err := c.ApplySRA(st, 1, sra); err != nil {
		t.Fatal(err)
	}
	detailed := &types.DetailedReport{
		SRAID:    sra.ID,
		Detector: detector.Address(),
		Wallet:   detector.Address(),
		Findings: findings("HUB-1", "HUB-2"),
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
	if _, err := c.ApplyDetailedReport(st, 4, detailed); err != nil {
		t.Fatal(err)
	}
	if refund, err := c.Refund(st, 1+DefaultParams().DetectionWindow, sra.ID, provider.Address()); err != nil || refund == 0 {
		t.Fatalf("refund = %s, %v", refund, err)
	}

	sraRec, commitRec := sraPrefix(sra.ID), commitPrefix(initial.DetailHash)
	var underSRA, underCommit, underGlobal int
	for _, k := range st.written {
		switch {
		case bytes.HasPrefix(k[:], sraRec[:]):
			underSRA++
		case bytes.HasPrefix(k[:], commitRec[:]):
			underCommit++
		case bytes.HasPrefix(k[:], globalRecord[:]):
			underGlobal++
		default:
			t.Errorf("slot %s lies outside the SRA's, its commitment's and the global records", k.Short())
		}
	}
	// Five SRA fields, the tally an R† bumps, two claims, the insurance
	// and tally an R* rewrites and the insurance a refund zeroes; three
	// commitment fields set and three cleared; the listing slot and the
	// escrow total the SRA, the R* and the refund write.
	if underSRA != 11 || underCommit != 6 || underGlobal != 4 {
		t.Errorf("%d writes under the SRA prefix, %d under the commitment's and %d under the global record's, want 11, 6 and 4",
			underSRA, underCommit, underGlobal)
	}
	if got, ok := c.SRAAt(st, 0); c.SRACount(st) != 1 || !ok || got != sra.ID {
		t.Errorf("listing = %d SRAs, first %s (%v), want 1, %s", c.SRACount(st), got.Short(), ok, sra.ID.Short())
	}

	seen := map[recordPrefix]string{globalRecord: "global"}
	for i := 0; i < 10_000; i++ {
		id := types.HashBytes([]byte{byte(i >> 8), byte(i), 0x1D})
		for kind, p := range map[string]recordPrefix{"sra": sraPrefix(id), "commit": commitPrefix(id)} {
			if prev, dup := seen[p]; dup {
				t.Fatalf("%s prefix of id %d collides with %s", kind, i, prev)
			}
			seen[p] = kind
		}
	}
}

// TestReferenceTally pins what an SRA's tally slot counts: every
// successful R† and R*, and each finding an R* had accepted under its
// severity, forged and already-claimed findings not at all; and that the
// packed counters leave their neighbours alone — the escrow total beside
// the SRA count, the confirmed count beside the tallies.
func TestReferenceTally(t *testing.T) {
	verifier := VerifierFunc(func(_ types.Hash, f types.Finding) bool { return f.VulnID != "FORGED" })
	f := newFixture(t, verifier)
	mixed := []types.Finding{
		{VulnID: "L-1", Severity: types.SeverityLow, Evidence: "poc"},
		{VulnID: "M-1", Severity: types.SeverityMedium, Evidence: "poc"},
		{VulnID: "M-2", Severity: types.SeverityMedium, Evidence: "poc"},
		{VulnID: "FORGED", Severity: types.SeverityHigh, Evidence: "poc"},
	}
	if _, err := f.submitPair(t, mixed, 2, 3); err != nil {
		t.Fatal(err)
	}
	// A second pair: one new high finding, one already claimed.
	if _, err := f.submitPair(t, append(findings("H-1"), mixed[0]), 4, 5); err != nil {
		t.Fatal(err)
	}
	// A reveal before its commitment is confirmed fails: its R† counts,
	// the R* does not.
	if _, err := f.submitPair(t, findings("H-2"), 6, 6); !errors.Is(err, ErrCommitNotReady) {
		t.Fatalf("early reveal: %v, want ErrCommitNotReady", err)
	}

	info, err := f.c.GetSRA(f.st, f.sra.ID)
	if err != nil {
		t.Fatal(err)
	}
	if info.Reports != 5 || info.ConfirmedVulns != 4 {
		t.Errorf("reports %d, confirmed %d; want 5 and 4", info.Reports, info.ConfirmedVulns)
	}
	for sev, want := range map[types.Severity]uint64{types.SeverityLow: 1, types.SeverityMedium: 2, types.SeverityHigh: 1, 0: 0, 4: 0} {
		if got := info.BySeverity(sev); got != want {
			t.Errorf("BySeverity(%d) = %d, want %d", sev, got, want)
		}
	}
	escrow := f.st.GetStorage(Address, escrowTotalSlot)
	if hashAmount(escrow) != f.sra.Insurance-types.Amount(info.ConfirmedVulns)*f.sra.Bounty || f.c.SRACount(f.st) != 1 {
		t.Errorf("escrow slot %s: total %s, %d SRAs", escrow, hashAmount(escrow), f.c.SRACount(f.st))
	}
}
