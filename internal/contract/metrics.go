package contract

import "github.com/smartcrowd/smartcrowd/internal/telemetry"

// Protocol-event counters. These count events observed by execution: a
// block re-executed for a fork branch or a below-snapshot rebuild observes
// its events again, so read these as execution activity, not canonical
// chain totals (the contract's records in the head state are the
// canonical record).
var (
	mSRAAnnounced   = telemetry.GetCounter("smartcrowd_contract_events_total", telemetry.L("event", "sra_announced"))
	mCommitRecorded = telemetry.GetCounter("smartcrowd_contract_events_total", telemetry.L("event", "commit_recorded"))
	mRevealAccepted = telemetry.GetCounter("smartcrowd_contract_events_total", telemetry.L("event", "reveal_accepted"))
	mRefundPaid     = telemetry.GetCounter("smartcrowd_contract_events_total", telemetry.L("event", "refund_paid"))
	mFindingsOK     = telemetry.GetCounter("smartcrowd_contract_findings_total", telemetry.L("verdict", "confirmed"))
	mFindingsForged = telemetry.GetCounter("smartcrowd_contract_findings_total", telemetry.L("verdict", "forged"))
	mFindingsDup    = telemetry.GetCounter("smartcrowd_contract_findings_total", telemetry.L("verdict", "duplicate"))
	mPayoutGwei     = telemetry.GetCounter("smartcrowd_contract_payout_gwei_total")
	mRefundGwei     = telemetry.GetCounter("smartcrowd_contract_refund_gwei_total")
)

func init() {
	telemetry.SetHelp("smartcrowd_contract_events_total", "SmartCrowd protocol events observed by execution (announce, commit R-dagger, reveal R-star, refund)")
	telemetry.SetHelp("smartcrowd_contract_findings_total", "findings in revealed reports, by AutoVerif/claim verdict")
	telemetry.SetHelp("smartcrowd_contract_payout_gwei_total", "bounty gwei paid to detector wallets")
	telemetry.SetHelp("smartcrowd_contract_refund_gwei_total", "insurance gwei refunded to providers")
}
