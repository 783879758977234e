package telemetry

import (
	"container/list"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"sync"
	"sync/atomic"
	"time"
)

// Causal tracing. A TraceContext names one block-lifecycle story — minted
// when a transaction batch is admitted or a block seal begins — and is
// threaded through build → seal → gossip → peer import → setHead. Every
// span opened inside a context lands in the owning registry's bounded
// trace store, grouped by trace id with parent links intact, so
// /debug/traces can render the full causal tree even across process
// boundaries (the wire transport carries the context in a frame
// envelope; see internal/wire).
//
// Sampling policy: traces are minted at block/batch granularity, never
// per transaction, so the store's bounds are generous relative to the
// event rate. When a trace accumulates more than maxSpansPerTrace spans
// the excess is counted, not stored; when the store holds more than
// maxTraces traces the least-recently-updated trace is evicted whole.

const (
	// maxTraces bounds the retained traces (LRU on last update).
	maxTraces = 512
	// maxSpansPerTrace bounds the spans kept per trace; overflow is
	// counted in TraceRecord.DroppedSpans.
	maxSpansPerTrace = 128
)

// TraceID names one causal story across nodes. 16 random-seeded bytes.
type TraceID [16]byte

// SpanID names one span within a trace. 8 bytes.
type SpanID [8]byte

// String renders the id as lowercase hex.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the id is unset.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// String renders the id as lowercase hex.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the id is unset.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// TraceContext is the propagated half of a trace: the trace id, the span
// to parent new work under, and the origin timestamp (unix nanoseconds at
// trace mint) that end-to-end latency is measured against. The zero value
// is "not traced" and is always safe to pass around.
type TraceContext struct {
	TraceID TraceID
	Span    SpanID
	// Start is the unix-nano timestamp the trace was minted at; children
	// inherit it so any hop can compute origin→here latency.
	Start int64
}

// Valid reports whether the context names a real trace.
func (tc TraceContext) Valid() bool { return !tc.TraceID.IsZero() }

// Id minting: a per-process random base plus an atomic counter. Two
// processes share no base (16/8 random bytes), and within a process the
// counter guarantees uniqueness without any locking.
var (
	traceIDBase [8]byte
	spanIDBase  uint64
	traceSeq    atomic.Uint64
	spanSeq     atomic.Uint64
)

func init() {
	var seed [16]byte
	if _, err := crand.Read(seed[:]); err != nil {
		// crypto/rand failing is unrecoverable in general, but tracing
		// must never take the node down: fall back to a fixed base and
		// rely on the counters for in-process uniqueness.
		copy(seed[:], "smartcrowd-trace")
	}
	copy(traceIDBase[:], seed[:8])
	spanIDBase = binary.BigEndian.Uint64(seed[8:])
}

// NewTraceID mints a process-unique trace id.
func NewTraceID() TraceID {
	var id TraceID
	copy(id[:8], traceIDBase[:])
	binary.BigEndian.PutUint64(id[8:], traceSeq.Add(1))
	return id
}

// NewSpanID mints a process-unique span id.
func NewSpanID() SpanID {
	var id SpanID
	binary.BigEndian.PutUint64(id[:], spanIDBase+spanSeq.Add(1))
	return id
}

// TraceRecord is one retained trace: its spans in completion order plus
// an overflow count when the per-trace bound was hit.
type TraceRecord struct {
	ID           string       `json:"id"`
	StartUnixNs  int64        `json:"startUnixNs"`
	Spans        []SpanRecord `json:"spans"`
	DroppedSpans int          `json:"droppedSpans,omitempty"`
}

// traceEntry is the store-internal mutable form of a TraceRecord.
type traceEntry struct {
	id      TraceID
	startNs int64
	spans   []SpanRecord
	dropped int
	elem    *list.Element // position in traceStore.order; Value is *traceEntry
}

// traceStore is a bounded LRU of traces keyed by trace id. Recency is
// last span completion, so an in-flight cross-node trace stays resident
// while its hops arrive. Writes happen at block/batch granularity, so a
// mutex is fine.
type traceStore struct {
	mu      sync.Mutex
	traces  map[TraceID]*traceEntry
	order   *list.List // front = most recently updated
	evicted uint64
}

func (ts *traceStore) ensureLocked() {
	if ts.traces == nil {
		ts.traces = make(map[TraceID]*traceEntry)
		ts.order = list.New()
	}
}

// record files one completed span under its trace, evicting the
// least-recently-updated trace when the store is over capacity.
func (ts *traceStore) record(tc TraceContext, rec SpanRecord) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	ts.ensureLocked()
	e, ok := ts.traces[tc.TraceID]
	if !ok {
		e = &traceEntry{id: tc.TraceID, startNs: tc.Start}
		e.elem = ts.order.PushFront(e)
		ts.traces[tc.TraceID] = e
		for ts.order.Len() > maxTraces {
			oldest := ts.order.Back()
			ts.order.Remove(oldest)
			delete(ts.traces, oldest.Value.(*traceEntry).id)
			ts.evicted++
		}
	} else {
		ts.order.MoveToFront(e.elem)
	}
	if len(e.spans) >= maxSpansPerTrace {
		e.dropped++
		return
	}
	e.spans = append(e.spans, rec)
}

// recent returns up to limit traces, most recently updated first.
// limit <= 0 means all retained traces.
func (ts *traceStore) recent(limit int) []TraceRecord {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	if ts.order == nil {
		return []TraceRecord{}
	}
	n := ts.order.Len()
	if limit > 0 && limit < n {
		n = limit
	}
	out := make([]TraceRecord, 0, n)
	for el := ts.order.Front(); el != nil && len(out) < n; el = el.Next() {
		out = append(out, el.Value.(*traceEntry).snapshot())
	}
	return out
}

// get returns one trace by id.
func (ts *traceStore) get(id TraceID) (TraceRecord, bool) {
	ts.mu.Lock()
	defer ts.mu.Unlock()
	e, ok := ts.traces[id]
	if !ok {
		return TraceRecord{}, false
	}
	return e.snapshot(), true
}

func (e *traceEntry) snapshot() TraceRecord {
	return TraceRecord{
		ID:           e.id.String(),
		StartUnixNs:  e.startNs,
		Spans:        append([]SpanRecord(nil), e.spans...),
		DroppedSpans: e.dropped,
	}
}

// StartTrace mints a fresh trace and opens its root span. The returned
// span's Context() is what gets threaded through the block lifecycle and
// propagated over the wire.
func (r *Registry) StartTrace(name string) Span {
	now := time.Now()
	return Span{
		store: &r.traces,
		name:  name,
		start: now,
		tc: TraceContext{
			TraceID: NewTraceID(),
			Span:    NewSpanID(),
			Start:   now.UnixNano(),
		},
	}
}

// StartSpanIn opens a span as a child of parent. An invalid parent
// degrades to an untraced timer, so call sites never need to branch.
func (r *Registry) StartSpanIn(parent TraceContext, name string) Span {
	if !parent.Valid() {
		return Span{name: name, start: time.Now()}
	}
	return Span{
		store: &r.traces,
		name:  name,
		start: time.Now(),
		tc: TraceContext{
			TraceID: parent.TraceID,
			Span:    NewSpanID(),
			Start:   parent.Start,
		},
		parent: parent.Span,
	}
}

// RecentTraces returns up to limit retained traces, most recently
// updated first (limit <= 0 for all).
func (r *Registry) RecentTraces(limit int) []TraceRecord { return r.traces.recent(limit) }

// Trace returns one retained trace by id.
func (r *Registry) Trace(id TraceID) (TraceRecord, bool) { return r.traces.get(id) }

// StartTrace mints a trace on the Default registry.
func StartTrace(name string) Span { return Default.StartTrace(name) }

// StartSpanIn opens a child span on the Default registry.
func StartSpanIn(parent TraceContext, name string) Span { return Default.StartSpanIn(parent, name) }

// RecentTraces returns the Default registry's retained traces.
func RecentTraces(limit int) []TraceRecord { return Default.RecentTraces(limit) }

// GetTrace returns one trace from the Default registry.
func GetTrace(id TraceID) (TraceRecord, bool) { return Default.Trace(id) }

// ParseTraceID parses a 32-hex-char trace id (as rendered by String).
func ParseTraceID(s string) (TraceID, bool) {
	var id TraceID
	raw, err := hex.DecodeString(s)
	if err != nil || len(raw) != len(id) {
		return TraceID{}, false
	}
	copy(id[:], raw)
	return id, true
}
