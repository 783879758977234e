package chain

import (
	"errors"

	"github.com/smartcrowd/smartcrowd/internal/telemetry"
)

// Package-level metric handles, resolved once at init so hot paths pay a
// single atomic op per event. Registering at init also guarantees the
// chain family appears in /metrics with zero values before any import.
var (
	mImportInserted = telemetry.GetCounter("smartcrowd_chain_import_total", telemetry.L("outcome", "inserted"))
	mImportKnown    = telemetry.GetCounter("smartcrowd_chain_import_total", telemetry.L("outcome", "known"))
	mImportFailed   = telemetry.GetCounter("smartcrowd_chain_import_total", telemetry.L("outcome", "failed"))
	mStage1Ns       = telemetry.GetHistogram("smartcrowd_chain_stage1_verify_ns")
	mStage2Ns       = telemetry.GetHistogram("smartcrowd_chain_stage2_commit_ns")
	mBatchBlocks    = telemetry.GetHistogram("smartcrowd_chain_batch_blocks")
	mHeadHeight     = telemetry.GetGauge("smartcrowd_chain_head_height")
	mReorgs         = telemetry.GetCounter("smartcrowd_chain_reorgs_total")

	// Read-view publication (view.go).
	mViewPublished = telemetry.GetCounter("smartcrowd_chain_view_published_total")
)

func init() {
	telemetry.SetHelp("smartcrowd_chain_import_total", "blocks processed by InsertBlock/InsertChain, by outcome")
	telemetry.SetHelp("smartcrowd_chain_stage1_verify_ns", "stage-1 stateless verification latency per block (sender recovery, tx-root, PoW predicate)")
	telemetry.SetHelp("smartcrowd_chain_stage2_commit_ns", "stage-2 execute/commit latency per commit under the chain mutex: one block, or one InsertChain run")
	telemetry.SetHelp("smartcrowd_chain_batch_blocks", "InsertChain batch sizes in blocks")
	telemetry.SetHelp("smartcrowd_chain_head_height", "canonical head block number")
	telemetry.SetHelp("smartcrowd_chain_reorgs_total", "head switches that abandoned at least one canonical block")
	telemetry.SetHelp("smartcrowd_chain_view_published_total", "ReadView snapshots published by head switches")
}

// recordImport classifies a per-block import outcome into the counter
// family. ErrKnownBlock is a benign duplicate, not a failure.
func recordImport(err error) {
	switch {
	case err == nil:
		mImportInserted.Inc()
	case errors.Is(err, ErrKnownBlock):
		mImportKnown.Inc()
	default:
		mImportFailed.Inc()
	}
}
