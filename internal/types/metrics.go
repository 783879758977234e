package types

import "github.com/smartcrowd/smartcrowd/internal/telemetry"

var (
	mSenderCacheHit  = telemetry.GetCounter("smartcrowd_types_sender_cache_total", telemetry.L("outcome", "hit"))
	mSenderCacheMiss = telemetry.GetCounter("smartcrowd_types_sender_cache_total", telemetry.L("outcome", "miss"))
	mRecoverBatchTxs = telemetry.GetHistogram("smartcrowd_types_recover_batch_txs")
)

func init() {
	telemetry.SetHelp("smartcrowd_types_sender_cache_total", "Transaction.Sender calls, by memoization outcome (miss = full ECDSA recovery)")
	telemetry.SetHelp("smartcrowd_types_recover_batch_txs", "RecoverSenders batch sizes in transactions")
}
