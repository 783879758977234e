package bench

import (
	"bytes"
	"fmt"
	"os"
	"strconv"
	"time"

	"github.com/smartcrowd/smartcrowd/internal/p2p"
	"github.com/smartcrowd/smartcrowd/internal/telemetry"
	"github.com/smartcrowd/smartcrowd/internal/wire"
)

// Trace-cost gate knob: the span budget reuses the CI overhead test's
// environment variable so one override covers both gates.
const (
	tracecostSpanBudgetEnv = "SMARTCROWD_TRACE_BUDGET_NS"
	tracecostDefaultSpanNs = 5000.0 // 5µs per traced span, same as TestTraceOverheadBudget
)

// tracecostPayloadSize approximates a small gossiped block: large enough
// that the codec's copy/alloc work dominates, small enough that the
// 40-byte envelope's relative cost is visible if it ever regresses.
const tracecostPayloadSize = 4096

// tracecostHeaderSize is the wire frame header (magic, version, kind,
// length), restated here so the envelope check below is against a bare
// header+payload size computed independently of the codec.
const tracecostHeaderSize = 4 + 1 + 1 + 4

// TraceCost measures what the tracing layer costs the hot paths it
// instruments, and gates the overhead for CI:
//
//   - span lifecycle: open+end of a traced span (id stamping +
//     trace-store filing) must stay under the same budget
//     TestTraceOverheadBudget enforces (default 5µs,
//     SMARTCROWD_TRACE_BUDGET_NS overrides) — spans end at block/batch
//     granularity, so microseconds vanish against the event rate, but
//     accidental O(store) work would not.
//   - wire codec: WriteFrame+ReadFrame round-trip of a block-sized frame
//     over an in-memory buffer, reported as a cost; the encoded size
//     must be exactly the 40-byte envelope over a bare header+payload.
//
// The timing gate is skipped under -race (the detector's instrumentation
// would dominate); the structural envelope check always runs.
func TraceCost(scale Scale) (*Report, error) {
	spanIters, frameIters := 200_000, 50_000
	if scale == Full {
		spanIters, frameIters = 1_000_000, 250_000
	}

	r := &Report{
		ID:      "tracecost",
		Title:   "Trace cost: span lifecycle and the wire envelope",
		Headers: []string{"Path", "Cost", "Against"},
		Metrics: make(map[string]float64),
		ShapeOK: true,
	}

	spanBudget := tracecostDefaultSpanNs
	if env := os.Getenv(tracecostSpanBudgetEnv); env != "" {
		v, err := strconv.ParseFloat(env, 64)
		if err != nil {
			return nil, fmt.Errorf("bad %s %q: %v", tracecostSpanBudgetEnv, env, err)
		}
		spanBudget = v
	}

	// Span lifecycle on a private registry: the process registry's trace
	// store keeps serving the live node untouched.
	reg := telemetry.NewRegistry()
	root := reg.StartTrace("tracecost.root")
	tc := root.Context()
	root.End()

	tracedNs := timePerOp(spanIters, func() {
		reg.StartSpanIn(tc, "tracecost.span").End()
	})
	r.Rows = append(r.Rows, []string{
		"span open+end", fmt.Sprintf("%.0f ns/op", tracedNs), fmt.Sprintf("budget %.0f ns", spanBudget),
	})
	r.Metrics["span_traced_ns"] = tracedNs

	// Wire codec round-trip: encode to a reusable buffer, decode back.
	// The payload is deterministic junk — the codec never interprets it.
	payload := make([]byte, tracecostPayloadSize)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	traced := wire.Frame{
		Kind:    p2p.MsgBlock,
		Payload: payload,
		Trace: telemetry.TraceContext{
			TraceID: telemetry.NewTraceID(),
			Span:    telemetry.NewSpanID(),
			Start:   time.Now().UnixNano(),
		},
		SentNanos: time.Now().UnixNano(),
	}

	bareBytes := tracecostHeaderSize + len(payload)
	tracedBytes, err := frameSize(traced)
	if err != nil {
		return nil, err
	}
	envelope := tracedBytes - bareBytes
	r.Metrics["frame_bare_bytes"] = float64(bareBytes)
	r.Metrics["frame_traced_bytes"] = float64(tracedBytes)
	r.Metrics["envelope_bytes"] = float64(envelope)
	r.Rows = append(r.Rows, []string{
		"frame size", fmt.Sprintf("%d B", tracedBytes),
		fmt.Sprintf("bare %d B: +%d B (%.2f%%)", bareBytes, envelope, 100*float64(envelope)/float64(bareBytes)),
	})
	r.check(envelope == 40,
		"frame is exactly the 40-byte envelope over a bare header+payload (got +%d B)", envelope)

	tracedFrameNs, err := timeFrameRoundTrip(frameIters, traced)
	if err != nil {
		return nil, err
	}
	r.Rows = append(r.Rows, []string{"frame encode+decode", fmt.Sprintf("%.0f ns/op", tracedFrameNs), "-"})
	r.Metrics["frame_traced_ns"] = tracedFrameNs

	if raceEnabled {
		r.note("SKIP timing gate under -race: detector instrumentation dominates")
	} else {
		r.check(tracedNs <= spanBudget,
			"traced span %.0f ns/op within %.0f ns budget", tracedNs, spanBudget)
	}
	r.note("span iterations: %d, frame iterations: %d (payload %d B)",
		spanIters, frameIters, tracecostPayloadSize)
	return r, nil
}

// timePerOp runs fn iters times after a short warmup and returns the
// mean wall-clock cost per call in nanoseconds.
func timePerOp(iters int, fn func()) float64 {
	for i := 0; i < iters/10; i++ {
		fn()
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		fn()
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters)
}

// frameSize returns the encoded byte length of f.
func frameSize(f wire.Frame) (int, error) {
	var buf bytes.Buffer
	if err := wire.WriteFrame(&buf, f); err != nil {
		return 0, err
	}
	return buf.Len(), nil
}

// timeFrameRoundTrip measures WriteFrame+ReadFrame over a reused
// in-memory buffer, returning ns per round trip.
func timeFrameRoundTrip(iters int, f wire.Frame) (float64, error) {
	var buf bytes.Buffer
	roundTrip := func() error {
		buf.Reset()
		if err := wire.WriteFrame(&buf, f); err != nil {
			return err
		}
		got, err := wire.ReadFrame(&buf)
		if err != nil {
			return err
		}
		if got.Kind != f.Kind || len(got.Payload) != len(f.Payload) {
			return fmt.Errorf("tracecost: round-trip mangled frame: kind %d len %d", got.Kind, len(got.Payload))
		}
		return nil
	}
	for i := 0; i < iters/10; i++ {
		if err := roundTrip(); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		if err := roundTrip(); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / float64(iters), nil
}
