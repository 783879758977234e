// Package bench regenerates every table and figure of the SmartCrowd
// paper's evaluation (§VII). Each experiment is a pure function from a
// Scale (full = paper-sized, quick = CI-sized) to a Report whose rows
// mirror what the paper plots, plus shape checks that encode the paper's
// qualitative claims (who wins, by what factor, where crossovers fall).
//
// Experiment index:
//
//	Table1 — Table I:   per-service vulnerability counts, partial overlap
//	Fig3a  — Fig. 3(a): average mining reward per created block
//	Fig3b  — Fig. 3(b): block-time distribution over 2000 blocks
//	Fig4a  — Fig. 4(a): provider incentives vs time per hashing power
//	Fig4b  — Fig. 4(b): provider punishments vs VP per insurance
//	Fig5a  — Fig. 5(a): VP baseline (VPB) vs hashing power and horizon
//	Fig5b  — Fig. 5(b): provider balance at VPB and VPB±0.01
//	Fig6a  — Fig. 6(a): detector incentives vs capability (1-8 threads)
//	Fig6b  — Fig. 6(b): gas cost per detection report and per SRA
//
// plus two design ablations (two-phase reports, insurance escrow) and the
// §VIII majority-attack and detection-capability analyses. System
// performance is measured by benchmark/ (scbench), not here.
package bench

import (
	"encoding/json"
	"fmt"
	"strings"
)

// Scale selects experiment sizing.
type Scale int

// Scales.
const (
	// Quick shrinks horizons/trials for CI and testing.B runs.
	Quick Scale = iota + 1
	// Full reproduces the paper's dimensions (2000 blocks, 100 trials).
	Full
)

// Report is one regenerated table or figure.
type Report struct {
	// ID is the experiment identifier (e.g. "fig5a").
	ID string
	// Title describes the artifact.
	Title string
	// Headers labels the columns.
	Headers []string
	// Rows are the data series, already formatted.
	Rows [][]string
	// Notes records paper-vs-measured shape observations.
	Notes []string
	// Telemetry holds the process-wide telemetry movement (counter and
	// histogram-count deltas, current gauges) measured across the
	// experiment's run; populated by the bench CLI via telemetry.Since.
	Telemetry map[string]float64 `json:",omitempty"`
	// ShapeOK reports whether every qualitative claim held.
	ShapeOK bool
}

// check appends a PASS/FAIL note and accumulates the verdict.
func (r *Report) check(ok bool, format string, args ...interface{}) {
	status := "PASS"
	if !ok {
		status = "FAIL"
		r.ShapeOK = false
	}
	r.Notes = append(r.Notes, fmt.Sprintf("[%s] %s", status, fmt.Sprintf(format, args...)))
}

// note appends an informational note.
func (r *Report) note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s — %s ==\n", r.ID, r.Title)

	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], cell)
		}
		sb.WriteByte('\n')
	}
	writeRow(r.Headers)
	for i, w := range widths {
		if i > 0 {
			sb.WriteString("  ")
		}
		sb.WriteString(strings.Repeat("-", w))
	}
	sb.WriteByte('\n')
	for _, row := range r.Rows {
		writeRow(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&sb, "%s\n", n)
	}
	return sb.String()
}

// CSV renders the report as RFC-4180 CSV (headers + rows, no notes), for
// plotting pipelines.
func (r *Report) CSV() string {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(cell, ",\"\n") {
				sb.WriteByte('"')
				sb.WriteString(strings.ReplaceAll(cell, "\"", "\"\""))
				sb.WriteByte('"')
			} else {
				sb.WriteString(cell)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(r.Headers)
	for _, row := range r.Rows {
		writeRow(row)
	}
	return sb.String()
}

// JSON renders the full report (rows, notes, telemetry, verdict) as
// indented JSON for machine consumers.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}

// Experiment is a runnable table/figure regeneration.
type Experiment struct {
	ID    string
	Title string
	Run   func(Scale) (*Report, error)
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{ID: "tab1", Title: "Table I: third-party service detection counts", Run: Table1},
		{ID: "fig3a", Title: "Fig. 3(a): average reward per created block", Run: Fig3a},
		{ID: "fig3b", Title: "Fig. 3(b): block time distribution", Run: Fig3b},
		{ID: "fig4a", Title: "Fig. 4(a): provider incentives over time", Run: Fig4a},
		{ID: "fig4b", Title: "Fig. 4(b): punishments vs vulnerability proportion", Run: Fig4b},
		{ID: "fig5a", Title: "Fig. 5(a): VP baseline vs hashing power", Run: Fig5a},
		{ID: "fig5b", Title: "Fig. 5(b): provider balance around VPB", Run: Fig5b},
		{ID: "fig6a", Title: "Fig. 6(a): detector incentives vs capability", Run: Fig6a},
		{ID: "fig6b", Title: "Fig. 6(b): detection report costs", Run: Fig6b},
		{ID: "abl-twophase", Title: "Ablation: two-phase vs single-phase reports", Run: AblationTwoPhase},
		{ID: "abl-escrow", Title: "Ablation: escrowed vs goodwill punishment", Run: AblationEscrow},
		{ID: "abl-majority", Title: "Analysis: 51% attack success probability", Run: AblationMajority},
		{ID: "abl-dct", Title: "Analysis: total detection capability vs crowd size", Run: AnalysisDCT},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
