package telemetry

import (
	"math"
	"math/bits"
	"sync/atomic"
	"time"
)

// numBuckets covers the full uint64 range in power-of-two buckets:
// bucket 0 holds the value 0, bucket i (1 ≤ i ≤ 63) holds values in
// [2^(i-1), 2^i − 1], and bucket 64 holds values ≥ 2^63.
const numBuckets = 65

// Histogram is a streaming histogram over uint64 observations (durations
// in nanoseconds, batch sizes, dirty-account counts) with exponential
// power-of-two buckets. Observe is three atomic adds plus a CAS max;
// quantiles are exact at bucket granularity — Quantile returns the upper
// bound of the bucket containing the requested rank, so for observations
// that are themselves bucket bounds (see SnapToBucket) the result equals
// a reference rank from sorting the raw samples.
//
// Reads taken while writers are active see each atomic individually
// consistent but not a single point-in-time cut; telemetry consumers
// tolerate that by construction.
type Histogram struct {
	counts [numBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Uint64
	max    atomic.Uint64
}

// bucketIndex maps a value to its bucket: bits.Len64 gives 0 for 0, 1 for
// 1, 2 for 2–3, …, 64 for values ≥ 2^63.
func bucketIndex(v uint64) int { return bits.Len64(v) }

// BucketBound returns the inclusive upper bound of bucket i.
func BucketBound(i int) uint64 {
	switch {
	case i <= 0:
		return 0
	case i >= 64:
		return math.MaxUint64
	default:
		return 1<<uint(i) - 1
	}
}

// Observe records one value.
func (h *Histogram) Observe(v uint64) {
	h.counts[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// ObserveDuration records a duration in nanoseconds (negative clamps to 0).
func (h *Histogram) ObserveDuration(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.Observe(uint64(d))
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() uint64 { return h.sum.Load() }

// Max returns the largest observed value (0 when empty).
func (h *Histogram) Max() uint64 { return h.max.Load() }

// Quantile returns the value at quantile q ∈ [0, 1]: the upper bound of
// the bucket holding the observation of rank ⌈q·count⌉ (rank 1 = the
// smallest). Returns 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) uint64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		cum += h.counts[i].Load()
		if cum >= rank {
			return BucketBound(i)
		}
	}
	// Writers raced count ahead of buckets; report the top bucket seen.
	return h.max.Load()
}
