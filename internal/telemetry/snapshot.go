package telemetry

// Snapshot is a point-in-time flattening of every metric in a registry to
// `name{labels}` → value. Histograms expand to `_count`, `_sum`, `_max`,
// `_p50`, `_p90` and `_p99` series. Counters and histogram counts/sums
// are marked monotone so Delta can subtract a baseline; gauges, maxima
// and quantiles report their current value.
type Snapshot struct {
	Values map[string]float64
	// Monotone flags the keys Delta subtracts (counters, _count, _sum).
	Monotone map[string]bool
}

// seriesKey renders `name{labels}` (or bare name when unlabeled).
func seriesKey(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

// suffixedKey renders `name_sfx{labels}`.
func suffixedKey(name, sfx, labels string) string { return seriesKey(name+sfx, labels) }

// Snapshot flattens the registry. The result is a consistent read of each
// individual atomic, not a global point-in-time cut.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{
		Values:   make(map[string]float64),
		Monotone: make(map[string]bool),
	}
	r.mu.RLock()
	defer r.mu.RUnlock()
	for _, f := range r.families {
		for _, s := range f.series {
			switch m := s.metric.(type) {
			case *Counter:
				k := seriesKey(f.name, s.labels)
				snap.Values[k] = float64(m.Value())
				snap.Monotone[k] = true
			case *Gauge:
				snap.Values[seriesKey(f.name, s.labels)] = float64(m.Value())
			case *Histogram:
				ck := suffixedKey(f.name, "_count", s.labels)
				sk := suffixedKey(f.name, "_sum", s.labels)
				snap.Values[ck] = float64(m.Count())
				snap.Values[sk] = float64(m.Sum())
				snap.Monotone[ck] = true
				snap.Monotone[sk] = true
				snap.Values[suffixedKey(f.name, "_max", s.labels)] = float64(m.Max())
				snap.Values[suffixedKey(f.name, "_p50", s.labels)] = float64(m.Quantile(0.50))
				snap.Values[suffixedKey(f.name, "_p90", s.labels)] = float64(m.Quantile(0.90))
				snap.Values[suffixedKey(f.name, "_p99", s.labels)] = float64(m.Quantile(0.99))
			}
		}
	}
	return snap
}

// Delta returns this snapshot relative to a baseline: monotone series are
// subtracted, everything else reports its current value. Zero entries are
// dropped so bench reports stay readable.
func (s Snapshot) Delta(prev Snapshot) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range s.Values {
		if s.Monotone[k] {
			v -= prev.Values[k] // missing baseline key reads as 0
		}
		if v != 0 {
			out[k] = v
		}
	}
	return out
}

// TakeSnapshot flattens the Default registry.
func TakeSnapshot() Snapshot { return Default.Snapshot() }

// Since returns the Default registry's metric movement since a baseline
// snapshot — the delta the bench harness records alongside timings.
func Since(prev Snapshot) map[string]float64 { return Default.Snapshot().Delta(prev) }
