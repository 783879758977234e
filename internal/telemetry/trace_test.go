package telemetry

import (
	"io"
	"os"
	"strings"
	"testing"
	"time"
)

func TestTraceContextThreading(t *testing.T) {
	r := NewRegistry()

	root := r.StartTrace("block.build")
	tc := root.Context()
	if !tc.Valid() {
		t.Fatal("StartTrace returned invalid context")
	}
	if tc.Start == 0 {
		t.Fatal("trace context missing origin timestamp")
	}

	child := r.StartSpanIn(tc, "block.seal")
	ctc := child.Context()
	if ctc.TraceID != tc.TraceID {
		t.Fatalf("child trace id %s != root %s", ctc.TraceID, tc.TraceID)
	}
	if ctc.Span == tc.Span {
		t.Fatal("child span id must differ from parent")
	}
	if ctc.Start != tc.Start {
		t.Fatal("child must inherit origin timestamp")
	}

	child.End(L("node", "n1"))
	root.End()

	rec, ok := r.Trace(tc.TraceID)
	if !ok {
		t.Fatal("trace not retained")
	}
	if len(rec.Spans) != 2 {
		t.Fatalf("trace has %d spans, want 2", len(rec.Spans))
	}
	// Spans land in completion order: the child ended first.
	if rec.Spans[0].Name != "block.seal" || rec.Spans[1].Name != "block.build" {
		t.Fatalf("unexpected span order: %s, %s", rec.Spans[0].Name, rec.Spans[1].Name)
	}
	if rec.Spans[0].ParentID != tc.Span.String() {
		t.Fatalf("child parent link %q, want %q", rec.Spans[0].ParentID, tc.Span.String())
	}
	if rec.Spans[1].ParentID != "" {
		t.Fatalf("root must have no parent link, got %q", rec.Spans[1].ParentID)
	}
	if rec.Spans[0].TraceID != tc.TraceID.String() {
		t.Fatalf("span trace id %q, want %q", rec.Spans[0].TraceID, tc.TraceID.String())
	}
}

func TestStartSpanInInvalidParentDegrades(t *testing.T) {
	r := NewRegistry()
	s := r.StartSpanIn(TraceContext{}, "orphan")
	if s.Context().Valid() {
		t.Fatal("invalid parent must yield untraced span")
	}
	// It is a timer and nothing more: End reports the elapsed time and
	// files the span nowhere.
	time.Sleep(time.Millisecond)
	if d := s.End(L("blocks", "7")); d < time.Millisecond {
		t.Fatalf("untraced span duration %v too short", d)
	}
	if got := len(r.RecentTraces(0)); got != 0 {
		t.Fatalf("untraced span created %d traces, want 0", got)
	}
}

func TestTraceIDUniqueness(t *testing.T) {
	seen := make(map[TraceID]bool)
	for i := 0; i < 10_000; i++ {
		id := NewTraceID()
		if seen[id] {
			t.Fatalf("duplicate trace id %s at i=%d", id, i)
		}
		seen[id] = true
	}
	if _, ok := ParseTraceID(NewTraceID().String()); !ok {
		t.Fatal("ParseTraceID round-trip failed")
	}
	if _, ok := ParseTraceID("zzzz"); ok {
		t.Fatal("ParseTraceID accepted junk")
	}
}

// TestTraceStoreEviction fills the store past capacity and checks LRU
// eviction, bounded memory, and that parent links inside surviving
// traces are untouched by the eviction of sibling traces.
func TestTraceStoreEviction(t *testing.T) {
	r := NewRegistry()

	// A "survivor" trace created first, with a parent→child span pair.
	surv := r.StartTrace("survivor.root")
	survCtx := surv.Context()
	r.StartSpanIn(survCtx, "survivor.child").End()
	surv.End()

	// Flood with enough single-span traces to evict everything older —
	// but keep the survivor fresh by touching it mid-flood.
	const flood = maxTraces + 64
	for i := 0; i < flood; i++ {
		s := r.StartTrace("flood")
		s.End()
		if i == flood/2 {
			// An update moves the survivor to the front of the LRU.
			r.StartSpanIn(survCtx, "survivor.touch").End()
		}
	}

	traces := r.RecentTraces(0)
	if len(traces) > maxTraces {
		t.Fatalf("store retained %d traces, cap is %d", len(traces), maxTraces)
	}
	if r.EvictedTraces() == 0 {
		t.Fatal("flood past capacity evicted nothing")
	}

	rec, ok := r.Trace(survCtx.TraceID)
	if !ok {
		t.Fatal("recently-touched trace was evicted (LRU broken)")
	}
	if len(rec.Spans) != 3 {
		t.Fatalf("survivor has %d spans, want 3", len(rec.Spans))
	}
	// Parent links survive sibling eviction.
	for _, sp := range rec.Spans {
		if strings.HasPrefix(sp.Name, "survivor.") && sp.Name != "survivor.root" {
			if sp.ParentID != survCtx.Span.String() {
				t.Fatalf("span %s lost parent link: %q", sp.Name, sp.ParentID)
			}
		}
	}

	// The flood's oldest traces are the ones that went.
	for _, tr := range traces {
		if tr.ID == survCtx.TraceID.String() {
			return
		}
	}
	t.Fatal("survivor missing from RecentTraces")
}

// TestTraceStoreSpanOverflow checks the per-trace span bound counts
// instead of growing.
func TestTraceStoreSpanOverflow(t *testing.T) {
	r := NewRegistry()
	root := r.StartTrace("big")
	tc := root.Context()
	root.End()
	const extra = 40
	for i := 0; i < maxSpansPerTrace+extra; i++ {
		r.StartSpanIn(tc, "hop").End()
	}
	rec, ok := r.Trace(tc.TraceID)
	if !ok {
		t.Fatal("trace missing")
	}
	if len(rec.Spans) != maxSpansPerTrace {
		t.Fatalf("trace holds %d spans, cap is %d", len(rec.Spans), maxSpansPerTrace)
	}
	// root + (max-1) hops stored, the rest counted: 1 + cap + extra total ends.
	if rec.DroppedSpans != extra+1 {
		t.Fatalf("dropped %d spans, want %d", rec.DroppedSpans, extra+1)
	}
}

func TestRecentTracesLimitAndOrder(t *testing.T) {
	r := NewRegistry()
	var ids []string
	for i := 0; i < 5; i++ {
		s := r.StartTrace("t")
		ids = append(ids, s.Context().TraceID.String())
		s.End()
	}
	got := r.RecentTraces(3)
	if len(got) != 3 {
		t.Fatalf("limit ignored: got %d", len(got))
	}
	// Most recently updated first.
	for i := 0; i < 3; i++ {
		if got[i].ID != ids[4-i] {
			t.Fatalf("RecentTraces[%d] = %s, want %s", i, got[i].ID, ids[4-i])
		}
	}
}

func TestLoggerRingAndFormat(t *testing.T) {
	var out strings.Builder
	SetLogOutput(&out)
	defer SetLogOutput(os.Stderr)

	lg := Log("testsub")
	lg.Info("hello world", "height", 7, "id", "abc")
	line := out.String()
	for _, want := range []string{"level=info", "sub=testsub", `msg="hello world"`, "height=7", "id=abc"} {
		if !strings.Contains(line, want) {
			t.Errorf("log line %q missing %q", line, want)
		}
	}

	// Debug suppressed at the default level.
	out.Reset()
	lg.Debug("quiet")
	if out.Len() != 0 {
		t.Fatalf("debug leaked at info level: %q", out.String())
	}
	SetLogLevel(LevelDebug)
	lg.Debug("loud")
	SetLogLevel(LevelInfo)
	if !strings.Contains(out.String(), "level=debug") {
		t.Fatalf("debug not emitted at debug level: %q", out.String())
	}

	// The ring retains entries and a trace-stamped logger records the id.
	root := StartTrace("log.test")
	lg.WithTrace(root.Context()).Warn("traced entry")
	logs := RecentLogs()
	if len(logs) == 0 {
		t.Fatal("ring empty")
	}
	last := logs[len(logs)-1]
	if last.Msg != "traced entry" || last.Trace != root.Context().TraceID.String() {
		t.Fatalf("ring entry %+v missing trace stamp", last)
	}
	if last.Level != "warn" || last.Subsystem != "testsub" {
		t.Fatalf("ring entry %+v has wrong level/subsystem", last)
	}
}

func TestLoggerFatalExits(t *testing.T) {
	SetLogOutput(io.Discard)
	defer SetLogOutput(os.Stderr)
	orig := osExit
	defer func() { osExit = orig }()
	code := -1
	osExit = func(c int) { code = c }
	Log("x").Fatal("boom")
	if code != 1 {
		t.Fatalf("Fatal exited with %d, want 1", code)
	}
}

func TestEventBusPublishSubscribeReplay(t *testing.T) {
	before := EventSeq()
	ch, cancel := SubscribeEvents(4)
	defer cancel()

	root := StartTrace("evt.test")
	PublishEvent("head", root.Context(), map[string]string{"number": "9"})
	PublishEvent("sra", TraceContext{}, nil)

	var got []Event
	timeout := time.After(2 * time.Second)
	for len(got) < 2 {
		select {
		case e := <-ch:
			if e.Seq > before {
				got = append(got, e)
			}
		case <-timeout:
			t.Fatalf("timed out with %d events", len(got))
		}
	}
	if got[0].Type != "head" || got[0].Trace != root.Context().TraceID.String() {
		t.Fatalf("event 0 = %+v", got[0])
	}
	if got[0].Data["number"] != "9" {
		t.Fatalf("event data lost: %+v", got[0].Data)
	}
	if got[1].Type != "sra" || got[1].Trace != "" {
		t.Fatalf("event 1 = %+v", got[1])
	}
	if got[1].Seq != got[0].Seq+1 {
		t.Fatalf("sequence not monotonic: %d then %d", got[0].Seq, got[1].Seq)
	}

	// Replay returns the same events for a late joiner.
	replay := EventsSince(before)
	if len(replay) < 2 {
		t.Fatalf("replay returned %d events, want >= 2", len(replay))
	}
	if replay[0].Seq != got[0].Seq {
		t.Fatalf("replay starts at %d, want %d", replay[0].Seq, got[0].Seq)
	}
	// Cancel twice must not panic.
	cancel()
}

func TestEventBusSlowSubscriberDrops(t *testing.T) {
	_, cancelA := SubscribeEvents(1)
	defer cancelA()
	dropped := mEventsDropped.Value()
	for i := 0; i < 5; i++ {
		PublishEvent("head", TraceContext{}, nil)
	}
	if mEventsDropped.Value() <= dropped {
		t.Fatal("full subscriber buffer recorded no drops")
	}
}

// EvictedTraces returns how many traces the store has evicted whole.
func (r *Registry) EvictedTraces() uint64 { return r.traces.evictedCount() }

// evictedCount returns how many whole traces the store has dropped.
func (ts *traceStore) evictedCount() uint64 {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	return ts.evicted
}
