package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
)

// ContentType is the Prometheus text exposition format content type.
const ContentType = "text/plain; version=0.0.4; charset=utf-8"

// WritePrometheus renders every metric in the Prometheus text exposition
// format (v0.0.4). Families are emitted in name order, series in label
// order, so output is deterministic given a quiescent registry. Counters
// and gauges map directly; histograms export as summaries (quantile
// series plus `_sum`/`_count`) with an additional `<name>_max` gauge.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.RLock()
	names := make([]string, 0, len(r.families))
	for name := range r.families {
		names = append(names, name)
	}
	sort.Strings(names)

	type line struct{ s string }
	var out []line
	emit := func(format string, args ...interface{}) {
		out = append(out, line{fmt.Sprintf(format, args...)})
	}
	for _, name := range names {
		f := r.families[name]
		help := f.help
		if help == "" {
			help = name
		}
		keys := make([]string, 0, len(f.series))
		for k := range f.series {
			keys = append(keys, k)
		}
		sort.Strings(keys)

		emit("# HELP %s %s", name, help)
		switch f.kind {
		case kindCounter:
			emit("# TYPE %s counter", name)
			for _, k := range keys {
				c := f.series[k].metric.(*Counter)
				emit("%s %s", seriesKey(name, k), strconv.FormatUint(c.Value(), 10))
			}
		case kindGauge:
			emit("# TYPE %s gauge", name)
			for _, k := range keys {
				g := f.series[k].metric.(*Gauge)
				emit("%s %s", seriesKey(name, k), strconv.FormatInt(g.Value(), 10))
			}
		case kindHistogram:
			emit("# TYPE %s summary", name)
			for _, k := range keys {
				h := f.series[k].metric.(*Histogram)
				for _, q := range [...]struct {
					q float64
					s string
				}{{0.50, "0.5"}, {0.90, "0.9"}, {0.99, "0.99"}} {
					ql := `quantile="` + q.s + `"`
					if k != "" {
						ql = k + "," + ql
					}
					emit("%s %s", seriesKey(name, ql), strconv.FormatUint(h.Quantile(q.q), 10))
				}
				emit("%s %s", suffixedKey(name, "_sum", k), strconv.FormatUint(h.Sum(), 10))
				emit("%s %s", suffixedKey(name, "_count", k), strconv.FormatUint(h.Count(), 10))
			}
			emit("# TYPE %s_max gauge", name)
			for _, k := range keys {
				h := f.series[k].metric.(*Histogram)
				emit("%s %s", suffixedKey(name, "_max", k), strconv.FormatUint(h.Max(), 10))
			}
		}
	}
	r.mu.RUnlock()

	for _, l := range out {
		if _, err := io.WriteString(w, l.s+"\n"); err != nil {
			return err
		}
	}
	return nil
}

// Handler serves the registry in Prometheus text format (GET /metrics).
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", ContentType)
		_ = r.WritePrometheus(w)
	})
}

// Handler serves the Default registry.
func Handler() http.Handler { return Default.Handler() }
