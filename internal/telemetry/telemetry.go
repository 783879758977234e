// Package telemetry is SmartCrowd's zero-dependency observability layer:
// a process-wide metrics registry (lock-free atomic counters and gauges,
// exponential-bucket streaming histograms), a lightweight span tracer, and
// two export surfaces — Prometheus text exposition (prom.go) for
// operators and a flattened Snapshot (snapshot.go) the bench harness uses
// to record metric deltas alongside timings.
//
// The paper's evaluation (§VII) is built entirely on measured system
// signals — block intervals, fee totals, confirmation latencies, per-miner
// hashing-power shares. This package makes those signals observable on a
// live node instead of only in offline bench harnesses.
//
// Design constraints:
//
//   - Stdlib only. No client_golang, no OpenTelemetry.
//   - Cheap enough to leave on: a counter increment is one atomic add on a
//     pre-resolved handle (documented budget: ≤ 30 ns, enforced by
//     TestCounterOverheadBudget); a histogram observation is three atomic
//     adds plus a CAS max.
//   - Safe under -race: every hot-path mutation is a sync/atomic
//     operation; the registry lock is only taken when resolving a handle,
//     which callers do once at package init.
//
// Naming convention: `smartcrowd_<pkg>_<name>` with unit suffixes
// (`_total` for counters, `_ns`/`_ms` for durations) and dimensions as
// labels, e.g. `smartcrowd_txpool_admission_total{outcome="shed"}`.
package telemetry

import (
	"fmt"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension, rendered as key="value".
type Label struct{ Key, Value string }

// L builds a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing event count. The zero value is
// usable but unregistered; obtain counters from a Registry so they export.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is an instantaneous level (pool depth, head height, hash rate).
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Value returns the current level.
func (g *Gauge) Value() int64 { return g.v.Load() }

// metricKind discriminates family types; a name is bound to one kind for
// the life of the registry.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// series is one labeled instance of a family.
type series struct {
	labels string // canonical `k="v",k2="v2"` rendering, sorted by key
	metric interface{}
}

// family groups every series sharing a metric name.
type family struct {
	name   string
	kind   metricKind
	series map[string]*series
}

// Registry owns metric families and the trace store. All
// methods are safe for concurrent use; handle resolution takes a lock,
// but the returned handles mutate lock-free.
type Registry struct {
	mu       sync.RWMutex
	families map[string]*family
	// help is keyed by family name, apart from families, so help set at
	// init reaches a family first resolved later (per event).
	help   map[string]string
	traces traceStore
}

// NewRegistry creates an empty registry. Most code uses the process-wide
// Default; simulations that need per-run isolation create their own.
func NewRegistry() *Registry {
	return &Registry{families: make(map[string]*family), help: make(map[string]string)}
}

// Default is the process-wide registry every package-level helper binds to.
var Default = NewRegistry()

// nameForm is the shape every family name takes:
// smartcrowd_<subsystem>_<name>[_unit], lower snake_case. Dashboards key
// on these names, so registering any other is a programming error.
var nameForm = regexp.MustCompile(`^smartcrowd(_[a-z][a-z0-9]*){2,}$`)

// validName reports whether name has nameForm, which also keeps it inside
// the Prometheus metric-name charset.
func validName(name string) bool { return nameForm.MatchString(name) }

// canonicalLabels renders labels sorted by key. Values are escaped for the
// exposition format (backslash, quote, newline).
func canonicalLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var sb strings.Builder
	for i, l := range ls {
		if i > 0 {
			sb.WriteByte(',')
		}
		sb.WriteString(l.Key)
		sb.WriteString(`="`)
		sb.WriteString(escapeLabelValue(l.Value))
		sb.WriteByte('"')
	}
	return sb.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// resolve returns (creating on first use) the metric for name+labels.
// A name is permanently bound to one kind; mixing kinds is a programming
// error and panics.
func (r *Registry) resolve(kind metricKind, name string, labels []Label, fresh func() interface{}) interface{} {
	key := canonicalLabels(labels)
	r.mu.RLock()
	if f, ok := r.families[name]; ok && f.kind == kind {
		if s, ok := f.series[key]; ok {
			r.mu.RUnlock()
			return s.metric
		}
	}
	r.mu.RUnlock()

	r.mu.Lock()
	defer r.mu.Unlock()
	f, ok := r.families[name]
	if !ok {
		if !validName(name) {
			panic("telemetry: invalid metric name " + name)
		}
		f = &family{name: name, kind: kind, series: make(map[string]*series)}
		r.families[name] = f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("telemetry: metric %s registered as %s, requested as %s", name, f.kind, kind))
	}
	s, ok := f.series[key]
	if !ok {
		s = &series{labels: key, metric: fresh()}
		f.series[key] = s
	}
	return s.metric
}

// Counter returns the counter for name+labels, creating it on first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	return r.resolve(kindCounter, name, labels, func() interface{} { return new(Counter) }).(*Counter)
}

// Gauge returns the gauge for name+labels, creating it on first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	return r.resolve(kindGauge, name, labels, func() interface{} { return new(Gauge) }).(*Gauge)
}

// Histogram returns the histogram for name+labels, creating it on first
// use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	return r.resolve(kindHistogram, name, labels, func() interface{} { return new(Histogram) }).(*Histogram)
}

// SetHelp attaches exposition help text to a family, registered yet or
// not (first writer wins; families without help export their name).
func (r *Registry) SetHelp(name, help string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.help[name]; !ok {
		r.help[name] = help
	}
}

// Package-level helpers bound to Default.

// GetCounter returns a counter from the Default registry.
func GetCounter(name string, labels ...Label) *Counter { return Default.Counter(name, labels...) }

// GetGauge returns a gauge from the Default registry.
func GetGauge(name string, labels ...Label) *Gauge { return Default.Gauge(name, labels...) }

// GetHistogram returns a histogram from the Default registry.
func GetHistogram(name string, labels ...Label) *Histogram {
	return Default.Histogram(name, labels...)
}

// SetHelp attaches help text to a Default-registry family.
func SetHelp(name, help string) { Default.SetHelp(name, help) }
