package node

import (
	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
)

var (
	mOrphanBuffered    = telemetry.GetCounter("smartcrowd_node_orphans_buffered_total")
	mOrphanReplaced    = telemetry.GetCounter("smartcrowd_node_orphan_evictions_total", telemetry.L("reason", "replaced"))
	mOrphanCapacity    = telemetry.GetCounter("smartcrowd_node_orphan_evictions_total", telemetry.L("reason", "capacity"))
	mOrphanDepth       = telemetry.GetGauge("smartcrowd_node_orphan_depth")
	mGossipDupTx       = telemetry.GetCounter("smartcrowd_node_gossip_duplicates_total", telemetry.L("kind", "tx"))
	mGossipDupBlock    = telemetry.GetCounter("smartcrowd_node_gossip_duplicates_total", telemetry.L("kind", "block"))
	mGossipMalformed   = telemetry.GetCounter("smartcrowd_node_gossip_malformed_total")
	mBlockRequestsSent = telemetry.GetCounter("smartcrowd_node_block_requests_total")

	// The relay counters are indexed by item kind (p2p.MsgTx, p2p.MsgBlock).
	mGossipAnnounced = [...]*telemetry.Counter{
		p2p.MsgTx:    telemetry.GetCounter("smartcrowd_node_gossip_announced_total", telemetry.L("kind", "tx")),
		p2p.MsgBlock: telemetry.GetCounter("smartcrowd_node_gossip_announced_total", telemetry.L("kind", "block")),
	}
	mFetchOK = [...]*telemetry.Counter{
		p2p.MsgTx:    telemetry.GetCounter("smartcrowd_node_gossip_fetches_total", telemetry.L("kind", "tx"), telemetry.L("outcome", "ok")),
		p2p.MsgBlock: telemetry.GetCounter("smartcrowd_node_gossip_fetches_total", telemetry.L("kind", "block"), telemetry.L("outcome", "ok")),
	}
	mFetchTimeout = [...]*telemetry.Counter{
		p2p.MsgTx:    telemetry.GetCounter("smartcrowd_node_gossip_fetches_total", telemetry.L("kind", "tx"), telemetry.L("outcome", "timeout")),
		p2p.MsgBlock: telemetry.GetCounter("smartcrowd_node_gossip_fetches_total", telemetry.L("kind", "block"), telemetry.L("outcome", "timeout")),
	}
	mFetchUnsolicited = [...]*telemetry.Counter{
		p2p.MsgTx:    telemetry.GetCounter("smartcrowd_node_gossip_fetches_total", telemetry.L("kind", "tx"), telemetry.L("outcome", "unsolicited")),
		p2p.MsgBlock: telemetry.GetCounter("smartcrowd_node_gossip_fetches_total", telemetry.L("kind", "block"), telemetry.L("outcome", "unsolicited")),
	}
	mFetchesInFlight = telemetry.GetGauge("smartcrowd_node_gossip_fetches_in_flight")

	mSyncChunks      = telemetry.GetCounter("smartcrowd_node_sync_chunks_total")
	mSyncRangeBlocks = telemetry.GetCounter("smartcrowd_node_sync_range_blocks_total")
	mSyncCompleted   = telemetry.GetCounter("smartcrowd_node_sync_sessions_finished_total", telemetry.L("outcome", "complete"))
	mSnapAdopted     = telemetry.GetCounter("smartcrowd_node_snapshots_adopted_total")
	mSnapServed      = telemetry.GetCounter("smartcrowd_node_snapshots_served_total")
)

// mSyncSessions counts session starts by mode; mSyncFallbacks counts
// snap→replay downgrades and mSyncAborted abandoned sessions, both by
// reason. Sessions are rare, so per-event registry lookups are fine.
func mSyncSessions(mode string) *telemetry.Counter {
	return telemetry.GetCounter("smartcrowd_node_sync_sessions_total", telemetry.L("mode", mode))
}

func mSyncFallbacks(reason string) *telemetry.Counter {
	return telemetry.GetCounter("smartcrowd_node_sync_fallbacks_total", telemetry.L("reason", reason))
}

func mSyncAborted(reason string) *telemetry.Counter {
	return telemetry.GetCounter("smartcrowd_node_sync_sessions_finished_total", telemetry.L("outcome", "aborted"), telemetry.L("reason", reason))
}

func init() {
	telemetry.SetHelp("smartcrowd_node_orphans_buffered_total", "blocks parked in the orphan buffer awaiting an ancestor")
	telemetry.SetHelp("smartcrowd_node_orphan_evictions_total", "orphan-buffer evictions, by reason (replaced = same parent slot, capacity = buffer full)")
	telemetry.SetHelp("smartcrowd_node_orphan_depth", "blocks currently parked in the orphan buffer")
	telemetry.SetHelp("smartcrowd_node_gossip_duplicates_total", "gossip redeliveries of already-seen payloads, by kind")
	telemetry.SetHelp("smartcrowd_node_gossip_announced_total", "item ids announced to peers on relay, by kind")
	telemetry.SetHelp("smartcrowd_node_gossip_fetches_total", "fetches of announced items settled, by kind and outcome (ok = the asked announcer delivered, unsolicited = another path delivered first, timeout = the asked announcer stayed silent)")
	telemetry.SetHelp("smartcrowd_node_gossip_fetches_in_flight", "announced items asked for and not yet received")
	telemetry.SetHelp("smartcrowd_node_gossip_malformed_total", "gossip payloads that failed to decode and were dropped")
	telemetry.SetHelp("smartcrowd_node_block_requests_total", "ancestor backfill requests sent after an orphaned block")
	telemetry.SetHelp("smartcrowd_node_sync_chunks_total", "snapshot state chunks downloaded")
	telemetry.SetHelp("smartcrowd_node_sync_range_blocks_total", "blocks received through range responses")
	telemetry.SetHelp("smartcrowd_node_sync_sessions_total", "sync sessions started, by mode (snap, replay)")
	telemetry.SetHelp("smartcrowd_node_sync_sessions_finished_total", "sync sessions ended, by outcome (and abort reason)")
	telemetry.SetHelp("smartcrowd_node_sync_fallbacks_total", "snap sessions downgraded to replay, by reason")
	telemetry.SetHelp("smartcrowd_node_snapshots_adopted_total", "verified snapshots adopted as the chain prefix")
	telemetry.SetHelp("smartcrowd_node_snapshots_served_total", "snapshot serializations performed for joining peers")
}
