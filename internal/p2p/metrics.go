package p2p

import "github.com/smartcrowd/smartcrowd/internal/telemetry"

var (
	mDelivered   = telemetry.GetCounter("smartcrowd_p2p_deliveries_total", telemetry.L("outcome", "delivered"))
	mDropped     = telemetry.GetCounter("smartcrowd_p2p_deliveries_total", telemetry.L("outcome", "dropped"))
	mBlocked     = telemetry.GetCounter("smartcrowd_p2p_deliveries_total", telemetry.L("outcome", "blocked"))
	mFanoutPeers = telemetry.GetHistogram("smartcrowd_p2p_broadcast_fanout")
	mInFlight    = telemetry.GetGauge("smartcrowd_p2p_in_flight")

	mMalformedBlockReq    = telemetry.GetCounter("smartcrowd_p2p_malformed_total", telemetry.L("kind", "block-request"))
	mMalformedManifest    = telemetry.GetCounter("smartcrowd_p2p_malformed_total", telemetry.L("kind", "snap-manifest"))
	mMalformedChunkReq    = telemetry.GetCounter("smartcrowd_p2p_malformed_total", telemetry.L("kind", "snap-chunk-request"))
	mMalformedChunk       = telemetry.GetCounter("smartcrowd_p2p_malformed_total", telemetry.L("kind", "snap-chunk"))
	mMalformedRangeReq    = telemetry.GetCounter("smartcrowd_p2p_malformed_total", telemetry.L("kind", "range-request"))
	mMalformedRangeBlocks = telemetry.GetCounter("smartcrowd_p2p_malformed_total", telemetry.L("kind", "range-blocks"))
	mMalformedAnnounce    = telemetry.GetCounter("smartcrowd_p2p_malformed_total", telemetry.L("kind", "head-announce"))

	mMalformedGossipAnnounce = telemetry.GetCounter("smartcrowd_p2p_malformed_total", telemetry.L("kind", "announce"))
	mMalformedTxReq          = telemetry.GetCounter("smartcrowd_p2p_malformed_total", telemetry.L("kind", "tx-request"))
)

func init() {
	telemetry.SetHelp("smartcrowd_p2p_deliveries_total", "gossip deliveries, by outcome (dropped = loss model, blocked = partition)")
	telemetry.SetHelp("smartcrowd_p2p_broadcast_fanout", "peers reached per Broadcast call")
	telemetry.SetHelp("smartcrowd_p2p_in_flight", "messages currently queued for future delivery")
	telemetry.SetHelp("smartcrowd_p2p_malformed_total", "protocol payloads rejected by validation, by kind")
}
