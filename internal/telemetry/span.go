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
func (s Span) End(labels ...Label) time.Duration {
	d := time.Since(s.start)
	if s.store == nil {
		return d
	}
	var lm map[string]string
	if len(labels) > 0 {
		lm = make(map[string]string, len(labels))
		for _, l := range labels {
			lm[l.Key] = l.Value
		}
	}
	rec := SpanRecord{
		Name: s.name, Start: s.start, DurationNs: int64(d), Labels: lm,
		TraceID: s.tc.TraceID.String(), SpanID: s.tc.Span.String(),
	}
	if !s.parent.IsZero() {
		rec.ParentID = s.parent.String()
	}
	s.store.record(s.tc, rec)
	return d
}
