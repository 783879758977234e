package telemetry

import (
	"math/rand"
	"sort"
	"testing"
)

func TestHistogramBucketing(t *testing.T) {
	cases := []struct {
		v     uint64
		snap  uint64
		index int
	}{
		{0, 0, 0},
		{1, 1, 1},
		{2, 3, 2},
		{3, 3, 2},
		{4, 7, 3},
		{1000, 1023, 10},
		{1 << 62, 1<<63 - 1, 63},
		{1 << 63, ^uint64(0), 64},
		{^uint64(0), ^uint64(0), 64},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.index {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.index)
		}
		if got := SnapToBucket(c.v); got != c.snap {
			t.Errorf("SnapToBucket(%d) = %d, want %d", c.v, got, c.snap)
		}
	}
}

// TestHistogramQuantilesExactAgainstReferenceSort feeds randomized inputs
// (snapped to bucket bounds, the histogram's resolution) into both the
// streaming histogram and an exact sort-based reference, and requires the
// quantile answers to be identical. This is the acceptance oracle for the
// exposition quantiles: at bucket granularity the histogram is exact, not
// approximate.
func TestHistogramQuantilesExactAgainstReferenceSort(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(5000)
		h := new(Histogram)
		ref := make([]uint64, 0, n)
		for i := 0; i < n; i++ {
			// Mix magnitudes: uniform exponent spreads values across
			// buckets instead of clustering in the top decade.
			v := rng.Uint64() >> uint(rng.Intn(64))
			v = SnapToBucket(v)
			h.Observe(v)
			ref = append(ref, v)
		}
		sort.Slice(ref, func(i, j int) bool { return ref[i] < ref[j] })

		for _, q := range []float64{0.01, 0.25, 0.50, 0.90, 0.99, 1.0} {
			rank := int(float64(n)*q + 0.9999999)
			if rank < 1 {
				rank = 1
			}
			if rank > n {
				rank = n
			}
			want := ref[rank-1]
			if got := h.Quantile(q); got != want {
				t.Fatalf("trial %d n=%d q=%v: histogram %d, reference sort %d", trial, n, q, got, want)
			}
		}
		if h.Max() != ref[n-1] {
			t.Fatalf("trial %d: max %d, reference %d", trial, h.Max(), ref[n-1])
		}
		var sum uint64
		for _, v := range ref {
			sum += v
		}
		if h.Sum() != sum {
			t.Fatalf("trial %d: sum %d, reference %d", trial, h.Sum(), sum)
		}
	}
}

func TestHistogramEmptyAndClamp(t *testing.T) {
	h := new(Histogram)
	if h.Quantile(0.5) != 0 || h.Max() != 0 {
		t.Error("empty histogram must report zeros")
	}
	h.Observe(10)
	if h.Quantile(-1) != h.Quantile(0) || h.Quantile(2) != h.Quantile(1) {
		t.Error("quantile arguments not clamped")
	}
	h.ObserveDuration(-5)
	if h.Count() != 2 {
		t.Errorf("count %d, want 2", h.Count())
	}
}

// SnapToBucket rounds v up to its bucket's upper bound — the value
// Quantile would report for it. Exported for tests and for consumers that
// want to compare exact references against histogram output.
func SnapToBucket(v uint64) uint64 { return BucketBound(bucketIndex(v)) }
