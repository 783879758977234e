package telemetry

import "time"

// SpanRecord is one completed traced region, ids hex-rendered.
type SpanRecord struct {
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	// DurationNs is the span's wall-clock length in nanoseconds.
	DurationNs int64             `json:"durationNs"`
	Labels     map[string]string `json:"labels,omitempty"`
	TraceID    string            `json:"traceId,omitempty"`
	SpanID     string            `json:"spanId,omitempty"`
	ParentID   string            `json:"parentId,omitempty"`
}

// Span is an in-progress traced region: End files it in the registry's
// trace store, the one span sink (/debug/traces). The span an invalid
// parent degrades to (StartSpanIn) has no store and is a timer only.
type Span struct {
	store  *traceStore
	name   string
	start  time.Time
	tc     TraceContext // own context: trace id + this span's id
	parent SpanID
}

// Context returns the span's trace context, for threading into children
// or propagating over the wire. Zero (invalid) for untraced spans.
func (s Span) Context() TraceContext { return s.tc }

// End completes the span with optional labels and returns its duration.
// The store keeps the span's ids as bytes and its labels as given; they
// are rendered as hex and a label map only when a trace is read.
func (s Span) End(labels ...Label) time.Duration {
	d := time.Since(s.start)
	if s.store == nil {
		return d
	}
	sp := spanEntry{name: s.name, start: s.start, dur: d, id: s.tc.Span, parent: s.parent}
	if len(labels) > 0 {
		sp.labels = append([]Label(nil), labels...)
	}
	s.store.record(s.tc, sp)
	return d
}

// spanEntry is a completed span as the trace store keeps it.
type spanEntry struct {
	name       string
	start      time.Time
	dur        time.Duration
	id, parent SpanID
	labels     []Label
}

// render is the span as /debug/traces shows it, under the trace whose
// hex id is traceID.
func (sp *spanEntry) render(traceID string) SpanRecord {
	rec := SpanRecord{
		Name: sp.name, Start: sp.start, DurationNs: int64(sp.dur),
		TraceID: traceID, SpanID: sp.id.String(),
	}
	if len(sp.labels) > 0 {
		rec.Labels = make(map[string]string, len(sp.labels))
		for _, l := range sp.labels {
			rec.Labels[l.Key] = l.Value
		}
	}
	if !sp.parent.IsZero() {
		rec.ParentID = sp.parent.String()
	}
	return rec
}
