package benchmark

import (
	"math"
	"sort"
	"time"
)

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us converts a duration to fractional microseconds.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// quantile reads the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice). xs need not be sorted.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 0.5 quantile.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailPercentile picks the highest of p99.9/p99/p95/p90 that still has at
// least ten samples beyond it, as the choosing-metrics guide asks, and
// returns its label and value. With fewer than 100 samples it reports the
// maximum instead, labelled as such.
func tailPercentile(xs []float64) (label string, value float64) {
	n := float64(len(xs))
	for _, p := range []struct {
		label string
		q     float64
	}{{"p99.9", 0.999}, {"p99", 0.99}, {"p95", 0.95}, {"p90", 0.90}} {
		if n*(1-p.q) >= 10 {
			return p.label, quantile(xs, p.q)
		}
	}
	return "max", quantile(xs, 1)
}

// ratio is a/b, or 0 when b is 0 — layer counters that never moved on a
// workload report 0 rather than NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
