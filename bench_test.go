package smartcrowd_test

import (
	"testing"

	"github.com/smartcrowd/smartcrowd/internal/bench"
)

// One testing.B benchmark per table/figure of the paper's evaluation
// (§VII). Each iteration regenerates the artifact at Quick scale and fails
// the benchmark if any paper-shape check breaks, so `go test -bench=.`
// doubles as the reproduction gate. The cmd/smartcrowd-bench binary prints
// the full tables (use -full for paper-sized runs).

func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := bench.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	for i := 0; i < b.N; i++ {
		report, err := exp.Run(bench.Quick)
		if err != nil {
			b.Fatalf("%s: %v", id, err)
		}
		if !report.ShapeOK {
			b.Fatalf("%s: paper-shape checks failed:\n%s", id, report)
		}
	}
}

// BenchmarkTable1Services regenerates Table I: per-service vulnerability
// counts for two IoT apps, with partial cross-service overlap.
func BenchmarkTable1Services(b *testing.B) { runExperiment(b, "tab1") }

// BenchmarkFig3aMiningRewards regenerates Fig. 3(a): average reward per
// created block across the top-5 hashing-power proportions.
func BenchmarkFig3aMiningRewards(b *testing.B) { runExperiment(b, "fig3a") }

// BenchmarkFig3bBlockTime regenerates Fig. 3(b): the block-time
// distribution (paper mean: 15.35 s).
func BenchmarkFig3bBlockTime(b *testing.B) { runExperiment(b, "fig3b") }

// BenchmarkFig4aProviderIncentives regenerates Fig. 4(a): provider
// incentives versus time per hashing power.
func BenchmarkFig4aProviderIncentives(b *testing.B) { runExperiment(b, "fig4a") }

// BenchmarkFig4bPunishments regenerates Fig. 4(b): punishments versus
// vulnerability proportion for three insurance levels.
func BenchmarkFig4bPunishments(b *testing.B) { runExperiment(b, "fig4b") }

// BenchmarkFig5aVPB regenerates Fig. 5(a): the vulnerability-proportion
// baseline versus hashing power and horizon.
func BenchmarkFig5aVPB(b *testing.B) { runExperiment(b, "fig5a") }

// BenchmarkFig5bProviderBalance regenerates Fig. 5(b): provider balance at
// VPB and VPB±0.01.
func BenchmarkFig5bProviderBalance(b *testing.B) { runExperiment(b, "fig5b") }

// BenchmarkFig6aDetectorIncentives regenerates Fig. 6(a): detector
// incentives versus capability (1-8 threads).
func BenchmarkFig6aDetectorIncentives(b *testing.B) { runExperiment(b, "fig6a") }

// BenchmarkFig6bReportCost regenerates Fig. 6(b): gas costs per detection
// report and per SRA release.
func BenchmarkFig6bReportCost(b *testing.B) { runExperiment(b, "fig6b") }

// BenchmarkAblationTwoPhase quantifies the two-phase submission design
// choice against mempool front-running.
func BenchmarkAblationTwoPhase(b *testing.B) { runExperiment(b, "abl-twophase") }

// BenchmarkAblationEscrow quantifies the insurance-escrow design choice
// against provider repudiation.
func BenchmarkAblationEscrow(b *testing.B) { runExperiment(b, "abl-escrow") }

// BenchmarkAblationMajority runs the §VIII majority-attack analysis:
// rewrite probability under 6 confirmations vs attacker hashing share.
func BenchmarkAblationMajority(b *testing.B) { runExperiment(b, "abl-majority") }

// BenchmarkAnalysisDCT runs the Eq. 11 analysis: platform-wide detection
// capability approaches 1 as the incentivized crowd grows.
func BenchmarkAnalysisDCT(b *testing.B) { runExperiment(b, "abl-dct") }
