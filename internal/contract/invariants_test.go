package contract

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/state"
	"github.com/smartcrowd/smartcrowd/internal/types"
	"github.com/smartcrowd/smartcrowd/internal/wallet"
)

// TestContractInvariantsUnderRandomOperations drives long random sequences
// of protocol operations (releases, commits, reveals with genuine / forged
// / duplicate findings, refunds, at random block heights) and asserts the
// global safety invariants after every step:
//
//  1. solvency — the contract's balance always covers the outstanding
//     escrow total;
//  2. conservation — total value in the system never changes;
//  3. unique claims — a vulnerability is never paid twice;
//  4. bounded forfeiture — an SRA never pays out more than its insurance.
func TestContractInvariantsUnderRandomOperations(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			t.Parallel()
			runInvariantSequence(t, seed)
		})
	}
}

type invSRA struct {
	sra       *types.SRA
	vulns     []string
	claimed   map[string]bool
	paid      types.Amount
	refunded  bool
	released  uint64
	provider  int
	insurance types.Amount
}

func runInvariantSequence(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	st := state.New()

	// Ground truth: vuln IDs ending in "-real" verify.
	verifier := VerifierFunc(func(_ types.Hash, f types.Finding) bool {
		return len(f.VulnID) > 5 && f.VulnID[len(f.VulnID)-5:] == "-real"
	})
	params := DefaultParams()
	params.DetectionWindow = 10
	c := New(params, verifier)

	providers := make([]*wallet.Wallet, 3)
	for i := range providers {
		providers[i] = wallet.NewDeterministic(fmt.Sprintf("inv-p%d-%d", seed, i))
		_ = st.Credit(providers[i].Address(), types.EtherAmount(10_000))
	}
	detectors := make([]*wallet.Wallet, 3)
	for i := range detectors {
		detectors[i] = wallet.NewDeterministic(fmt.Sprintf("inv-d%d-%d", seed, i))
		_ = st.Credit(detectors[i].Address(), types.EtherAmount(100))
	}

	totalSupply := func() types.Amount { return sumBalances(t, st.Serialize()) }
	initialSupply := totalSupply()

	var (
		sras    []*invSRA
		commits []struct {
			detailed *types.DetailedReport
			sraIdx   int
			block    uint64
		}
		block uint64 = 1
	)

	checkInvariants := func(step int) {
		t.Helper()
		if got := totalSupply(); got != initialSupply {
			t.Fatalf("step %d: supply changed: %s → %s", step, initialSupply, got)
		}
		var outstanding types.Amount
		for _, s := range sras {
			info, err := c.GetSRA(st, s.sra.ID)
			if err != nil {
				t.Fatalf("step %d: lost SRA: %v", step, err)
			}
			outstanding += info.InsuranceRemaining
			if s.paid > s.insurance {
				t.Fatalf("step %d: SRA paid %s of %s insurance", step, s.paid, s.insurance)
			}
			if info.InsuranceRemaining+s.paid != s.insurance && !s.refunded {
				t.Fatalf("step %d: escrow accounting broken: remaining %s + paid %s != %s",
					step, info.InsuranceRemaining, s.paid, s.insurance)
			}
		}
		if st.Balance(Address) < outstanding {
			t.Fatalf("step %d: contract balance %s below outstanding escrow %s",
				step, st.Balance(Address), outstanding)
		}
	}

	for step := 0; step < 200; step++ {
		block += uint64(rng.Intn(3))
		switch op := rng.Intn(10); {
		case op < 3 || len(sras) == 0: // release
			pIdx := rng.Intn(len(providers))
			p := providers[pIdx]
			insurance := types.EtherAmount(uint64(10 + rng.Intn(100)))
			if st.Balance(p.Address()) < insurance {
				continue
			}
			nVulns := rng.Intn(6)
			s := &invSRA{
				claimed: make(map[string]bool), provider: pIdx,
				insurance: insurance, released: block,
			}
			for v := 0; v < nVulns; v++ {
				s.vulns = append(s.vulns, fmt.Sprintf("V-%d-%d-real", step, v))
			}
			s.sra = &types.SRA{
				Provider:     p.Address(),
				Name:         fmt.Sprintf("fw-%d", step),
				Version:      "1",
				DownloadLink: "sc://x",
				Insurance:    insurance,
				Bounty:       types.EtherAmount(uint64(1 + rng.Intn(5))),
			}
			if err := types.SignSRA(s.sra, p); err != nil {
				t.Fatal(err)
			}
			if err := st.Transfer(p.Address(), Address, insurance); err != nil {
				t.Fatal(err)
			}
			if err := c.ApplySRA(st, block, s.sra); err != nil {
				t.Fatalf("step %d: release: %v", step, err)
			}
			sras = append(sras, s)

		case op < 7: // commit a report (maybe forged, maybe duplicate)
			s := sras[rng.Intn(len(sras))]
			d := detectors[rng.Intn(len(detectors))]
			var finding types.Finding
			switch {
			case len(s.vulns) > 0 && rng.Intn(3) > 0:
				finding = types.Finding{
					VulnID:   s.vulns[rng.Intn(len(s.vulns))],
					Severity: types.SeverityHigh, Evidence: fmt.Sprintf("step %d", step),
				}
			default:
				finding = types.Finding{
					VulnID:   fmt.Sprintf("FORGED-%d", step),
					Severity: types.SeverityHigh, Evidence: "fake",
				}
			}
			detailed := &types.DetailedReport{
				SRAID: s.sra.ID, Detector: d.Address(), Wallet: d.Address(),
				Findings: []types.Finding{finding},
			}
			if err := types.SignDetailedReport(detailed, d); err != nil {
				t.Fatal(err)
			}
			initial := &types.InitialReport{
				SRAID: s.sra.ID, Detector: d.Address(),
				DetailHash: detailed.CommitmentHash(), Wallet: d.Address(),
			}
			if err := types.SignInitialReport(initial, d); err != nil {
				t.Fatal(err)
			}
			if err := c.ApplyInitialReport(st, block, initial); err != nil {
				continue // duplicate commitment etc. — fine
			}
			idx := -1
			for i := range sras {
				if sras[i] == s {
					idx = i
				}
			}
			commits = append(commits, struct {
				detailed *types.DetailedReport
				sraIdx   int
				block    uint64
			}{detailed, idx, block})

		case op < 9 && len(commits) > 0: // reveal a random commitment
			i := rng.Intn(len(commits))
			cm := commits[i]
			commits = append(commits[:i], commits[i+1:]...)
			payout, err := c.ApplyDetailedReport(st, block, cm.detailed)
			if err != nil {
				continue // not confirmed yet, consumed, etc.
			}
			s := sras[cm.sraIdx]
			s.paid += payout.Paid
			for _, f := range payout.Accepted {
				if s.claimed[f.VulnID] {
					t.Fatalf("step %d: %s claimed twice", step, f.VulnID)
				}
				s.claimed[f.VulnID] = true
			}

		default: // attempt a refund
			s := sras[rng.Intn(len(sras))]
			refund, err := c.Refund(st, block, s.sra.ID, providers[s.provider].Address())
			if err != nil {
				continue // window open — fine
			}
			if refund > 0 {
				s.refunded = true
			}
		}
		checkInvariants(step)
	}
}

// sumBalances adds up every account balance in a state snapshot blob
// (layout in state/snapshot.go) — the supply over all accounts the state
// holds, not only the ones the test knows about.
func sumBalances(t *testing.T, blob []byte) types.Amount {
	t.Helper()
	count := binary.BigEndian.Uint64(blob[5:13])
	off := 13
	var sum types.Amount
	for i := uint64(0); i < count; i++ {
		sum += types.Amount(binary.BigEndian.Uint64(blob[off+20:]))
		off += 20 + 8 + 8
		off += 4 + int(binary.BigEndian.Uint32(blob[off:])) // code
		off += 4 + 64*int(binary.BigEndian.Uint32(blob[off:]))
	}
	if off != len(blob) {
		t.Fatalf("snapshot walk ended at %d of %d bytes", off, len(blob))
	}
	return sum
}
