// Attack resilience: the adversaries of paper §III-A against the deployed
// defenses.
//
//   - a forging detector fabricates findings → AutoVerif rejects them all,
//     the forger only burns gas;
//
//   - a plagiarist replays an honest detector's revealed findings → the
//     two-phase protocol leaves it with no prior commitment, so it earns
//     nothing;
//
//   - a spoofed SRA framing a benign provider → rejected by decentralized
//     verification before it ever reaches the chain.
//
//     go run ./examples/attack-resilience
package main

import (
	"fmt"

	"github.com/smartcrowd/smartcrowd"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
)

func main() {
	p := smartcrowd.NewPlatform(smartcrowd.PlatformConfig{Seed: 99})
	if err := p.Fund(p.ProviderWallet("vendor").Address(), smartcrowd.EtherAmount(20_000)); err != nil {
		fatal(err)
	}
	for _, d := range []string{"honest", "forger", "plagiarist"} {
		if err := p.Fund(p.DetectorWallet(d).Address(), smartcrowd.EtherAmount(100)); err != nil {
			fatal(err)
		}
	}
	if _, err := p.AddProvider("vendor"); err != nil {
		fatal(err)
	}

	honest, err := p.AddDetector("honest", &smartcrowd.CapabilityEngine{
		Name: "honest", Capability: 1, Speed: 8, Seed: 1,
	})
	if err != nil {
		fatal(err)
	}
	forger, err := p.AddDetector("forger", &smartcrowd.ForgingEngine{Name: "forger", Count: 6})
	if err != nil {
		fatal(err)
	}
	img := smartcrowd.GenerateImage("gateway-fw", "3.0", smartcrowd.UniverseSpec{
		High: 3, Medium: 2, Seed: 5,
	})
	sra, err := p.Release(0, img, smartcrowd.EtherAmount(1000), smartcrowd.EtherAmount(5))
	if err != nil {
		fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := p.Mine(0); err != nil {
			fatal(err)
		}
	}

	ref, err := p.Reference(sra.ID)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("release %s: %d genuine vulnerabilities confirmed on chain\n\n",
		sra.ID.Short(), ref.ConfirmedVulns)

	fmt.Println("attack 1 — forged detection reports:")
	fmt.Printf("  forger fabricated 6 findings; AutoVerif rejected every one\n")
	fmt.Printf("  forger earnings: %s\n\n", forger.Earnings())

	// The plagiarist now "observes" the honest reveals that are public on
	// the chain — the findings in the honest detector's R* transactions —
	// and joins: its first poll finds the release and resubmits them.
	fmt.Println("attack 2 — plagiarized detection reports:")
	thiefEngine := &smartcrowd.PlagiarizingEngine{Name: "plagiarist"}
	stolen := 0
	for _, blk := range p.Providers()[0].Chain().CanonicalBlocks() {
		for _, tx := range blk.Txs {
			if r, err := tx.DetailedReport(); err == nil && r.SRAID == sra.ID && r.Detector == p.DetectorWallet("honest").Address() {
				thiefEngine.Observe(r.Findings)
				stolen += len(r.Findings)
			}
		}
	}
	plagiarist, err := p.AddDetector("plagiarist", thiefEngine)
	if err != nil {
		fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := p.Mine(0); err != nil {
			fatal(err)
		}
	}
	fmt.Printf("  plagiarist replayed %d stolen findings after the reveals\n", stolen)
	fmt.Printf("  every claim was already recorded for the first reporter\n")
	fmt.Printf("  plagiarist earnings: %s\n", plagiarist.Earnings())
	fmt.Printf("  honest earnings:     %s\n\n", honest.Earnings())

	fmt.Println("attack 3 — spoofed SRA framing a benign provider:")
	attacker := smartcrowd.NewWallet("attacker")
	spoofed := &smartcrowd.SRA{
		Provider:     p.ProviderWallet("vendor").Address(), // framed victim
		Name:         "malware-fw",
		Version:      "6.6.6",
		SystemHash:   smartcrowd.Hash{0xBA, 0xD0},
		DownloadLink: "sc://evil/malware",
		Insurance:    smartcrowd.EtherAmount(1),
		Bounty:       smartcrowd.EtherAmount(1),
	}
	spoofed.ID = spoofed.ComputeID()
	sig, err := attacker.SignDigest(spoofed.ID)
	if err != nil {
		fatal(err)
	}
	spoofed.Sig = sig
	if err := spoofed.Verify(); err != nil {
		fmt.Printf("  decentralized verification rejected it: %v\n", err)
	} else {
		fmt.Println("  !! spoofed SRA verified — defense failed")
	}
}

// fatal reports err through the structured logger (level=error ring,
// /debug/logs) and exits non-zero — the examples' replacement for
// stdlib log.Fatal.
func fatal(err error) {
	telemetry.Log("example").Fatal(err.Error())
}
