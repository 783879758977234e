package contract

import (
	"bytes"
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
// SRA → R† → R* → Refund lifecycle writes lies under the SRA's prefix or
// its commitment's, apart from the escrow total, so each record is one
// subtree of the storage trie; and record prefixes do not collide across
// kinds or ids.
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
	var underSRA, underCommit int
	for _, k := range st.written {
		switch {
		case bytes.HasPrefix(k[:], sraRec[:]):
			underSRA++
		case bytes.HasPrefix(k[:], commitRec[:]):
			underCommit++
		case k != escrowTotalSlot:
			t.Errorf("slot %s lies outside the SRA's and its commitment's records", k.Short())
		}
	}
	// Five SRA fields, two claims, the insurance and vuln count an R*
	// rewrites and the insurance a refund zeroes; three commitment fields
	// set and three cleared.
	if underSRA != 10 || underCommit != 6 {
		t.Errorf("%d writes under the SRA prefix and %d under the commitment's, want 10 and 6", underSRA, underCommit)
	}

	seen := map[recordPrefix]string{prefixOf(kindGlobal, types.Hash{}): "global"}
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
