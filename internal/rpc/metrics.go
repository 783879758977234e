package rpc

import "github.com/smartcrowd/smartcrowd/internal/telemetry"

// Package-level metric handles, resolved once at init. The latency
// histogram keeps its mode="view" label so the series name operators
// scrape did not change when the locked read mode was removed.
var (
	mReqNs     = telemetry.GetHistogram("smartcrowd_rpc_request_ns", telemetry.L("mode", "view"))
	mReqErrors = telemetry.GetCounter("smartcrowd_rpc_request_errors_total")

	mCacheHitPerm  = telemetry.GetCounter("smartcrowd_rpc_cache_hit_total", telemetry.L("tier", "finalized"))
	mCacheHitHead  = telemetry.GetCounter("smartcrowd_rpc_cache_hit_total", telemetry.L("tier", "head"))
	mCacheMissPerm = telemetry.GetCounter("smartcrowd_rpc_cache_miss_total", telemetry.L("tier", "finalized"))
	mCacheMissHead = telemetry.GetCounter("smartcrowd_rpc_cache_miss_total", telemetry.L("tier", "head"))
	mCacheEvict    = telemetry.GetCounter("smartcrowd_rpc_cache_evict_total")
)

func init() {
	telemetry.SetHelp("smartcrowd_rpc_request_ns", "/v1 request service latency (chain reads and tx submission)")
	telemetry.SetHelp("smartcrowd_rpc_request_errors_total", "/v1 requests answered with an error envelope")
	telemetry.SetHelp("smartcrowd_rpc_cache_hit_total", "response-cache hits, by tier (finalized content-addressed vs head-keyed generation)")
	telemetry.SetHelp("smartcrowd_rpc_cache_miss_total", "response-cache misses that built and stored a response, by tier")
	telemetry.SetHelp("smartcrowd_rpc_cache_evict_total", "response-cache entries discarded (head-generation swaps and finalized-tier rotations)")
}
