package wire

import (
	"time"

	"github.com/smartcrowd/smartcrowd/internal/telemetry"
)

var (
	mDialAttempts  = telemetry.GetCounter("smartcrowd_wire_dials_total", telemetry.L("outcome", "attempt"))
	mDialSuccesses = telemetry.GetCounter("smartcrowd_wire_dials_total", telemetry.L("outcome", "ok"))
	mDialFailures  = telemetry.GetCounter("smartcrowd_wire_dials_total", telemetry.L("outcome", "error"))
	mHandshakesOK  = telemetry.GetCounter("smartcrowd_wire_handshakes_total", telemetry.L("outcome", "ok"))
	mFramesIn      = telemetry.GetCounter("smartcrowd_wire_frames_total", telemetry.L("dir", "in"))
	mFramesOut     = telemetry.GetCounter("smartcrowd_wire_frames_total", telemetry.L("dir", "out"))
	mBytesIn       = telemetry.GetCounter("smartcrowd_wire_bytes_total", telemetry.L("dir", "in"))
	mBytesOut      = telemetry.GetCounter("smartcrowd_wire_bytes_total", telemetry.L("dir", "out"))
	mQueueShed     = telemetry.GetCounter("smartcrowd_wire_queue_shed_total")
	mQueueDepth    = telemetry.GetHistogram("smartcrowd_wire_queue_depth")
	mReconnects    = telemetry.GetCounter("smartcrowd_wire_reconnects_total")
	mDisconnects   = telemetry.GetCounter("smartcrowd_wire_disconnects_total")
	mUnknownFrames = telemetry.GetCounter("smartcrowd_wire_unknown_frames_total")
	mPeers         = telemetry.GetGauge("smartcrowd_wire_peers")
	mFanout        = telemetry.GetHistogram("smartcrowd_wire_broadcast_fanout")
	mPropHop       = telemetry.GetHistogram("smartcrowd_wire_propagation_ms", telemetry.L("leg", "hop"))
	mPropE2E       = telemetry.GetHistogram("smartcrowd_wire_propagation_ms", telemetry.L("leg", "e2e"))
)

// handshakeFailure resolves the classified failure counter. Failures are
// rare, so resolving per event (a registry lookup) is fine.
func handshakeFailure(reason string) *telemetry.Counter {
	return telemetry.GetCounter("smartcrowd_wire_handshake_failures_total", telemetry.L("reason", reason))
}

func init() {
	telemetry.SetHelp("smartcrowd_wire_dials_total", "outbound dial attempts, by outcome")
	telemetry.SetHelp("smartcrowd_wire_handshakes_total", "completed version/genesis handshakes")
	telemetry.SetHelp("smartcrowd_wire_handshake_failures_total", "rejected handshakes, by reason (genesis, version, magic, hello, self, duplicate, io)")
	telemetry.SetHelp("smartcrowd_wire_frames_total", "frames moved over TCP, by direction")
	telemetry.SetHelp("smartcrowd_wire_bytes_total", "encoded frame bytes moved over TCP (header + envelope + payload), by direction")
	telemetry.SetHelp("smartcrowd_wire_queue_shed_total", "outbound frames dropped oldest-first by full per-peer queues")
	telemetry.SetHelp("smartcrowd_wire_queue_depth", "per-peer outbound queue depth observed at enqueue")
	telemetry.SetHelp("smartcrowd_wire_reconnects_total", "successful re-dials after a peer connection dropped")
	telemetry.SetHelp("smartcrowd_wire_disconnects_total", "peer connections torn down")
	telemetry.SetHelp("smartcrowd_wire_unknown_frames_total", "frames with unrecognized kinds, dropped")
	telemetry.SetHelp("smartcrowd_wire_peers", "currently connected peers")
	telemetry.SetHelp("smartcrowd_wire_broadcast_fanout", "peers reached per Broadcast call")
	telemetry.SetHelp("smartcrowd_wire_propagation_ms",
		"traced-frame latency in milliseconds: leg=hop is sender stamp to local receipt, leg=e2e is trace origin (seal start) to local receipt; cross-host values include clock skew, clamped at zero")
}

// observePropagation records the per-hop and end-to-end latency legs of
// one received traced frame. Wall clocks on different hosts skew, so
// negative deltas clamp to zero instead of poisoning the histogram.
func observePropagation(f Frame) {
	nowNs := time.Now().UnixNano()
	if f.SentNanos > 0 {
		mPropHop.Observe(clampMs(nowNs - f.SentNanos))
	}
	if f.Trace.Start > 0 {
		mPropE2E.Observe(clampMs(nowNs - f.Trace.Start))
	}
}

// clampMs converts a nanosecond delta to non-negative milliseconds.
func clampMs(deltaNs int64) uint64 {
	if deltaNs < 0 {
		return 0
	}
	return uint64(deltaNs / int64(time.Millisecond))
}
