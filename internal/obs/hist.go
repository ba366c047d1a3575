// Package obs is the service observability layer: lock-cheap fixed-bucket
// latency histograms, per-request trace spans with a bounded in-memory ring,
// and Prometheus text exposition helpers. Everything on the hot path is a
// handful of atomic operations — no locks, no allocation — so the
// instrumentation can ride inside the serving loop without perturbing the
// latencies it measures.
//
// Histograms export raw buckets, sum and count and compute no quantiles
// in process: a bucket-interpolated quantile can read above the largest
// real observation, so percentiles are left to whoever scrapes /metrics.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// NumBuckets is the number of histogram buckets, including the +Inf
// overflow bucket.
const NumBuckets = 28

// BucketBound returns the inclusive upper bound of bucket i in microseconds:
// log-spaced powers of two from 1µs (bucket 0) through 2^26µs ≈ 67s
// (bucket 26), with bucket 27 catching everything above as +Inf.
func BucketBound(i int) float64 {
	if i >= NumBuckets-1 {
		return math.Inf(1)
	}
	return float64(int64(1) << i)
}

// bucketOf maps an observation (microseconds) to its bucket: the smallest i
// with v <= 2^i.
func bucketOf(v int64) int {
	if v <= 1 {
		return 0
	}
	b := bits.Len64(uint64(v - 1)) // ceil(log2 v)
	if b > NumBuckets-1 {
		return NumBuckets - 1
	}
	return b
}

// Histogram is a fixed-bucket log-spaced latency histogram safe for
// concurrent writers. Observe is three atomic adds; readers take a Snapshot
// and export its buckets, sum and count. The zero value is ready to use.
type Histogram struct {
	counts [NumBuckets]atomic.Int64
	sum    atomic.Int64
	count  atomic.Int64
}

// Observe records one value (in microseconds; negative values clamp to 0).
func (h *Histogram) Observe(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)].Add(1)
	h.sum.Add(v)
	h.count.Add(1)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all observations in microseconds.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Snapshot copies the histogram state for consistent-enough reading: each
// cell is loaded atomically, so a snapshot taken under concurrent writes is
// a valid histogram even if it straddles a few in-flight observations.
func (h *Histogram) Snapshot() Snapshot {
	var s Snapshot
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	s.Sum = h.sum.Load()
	s.Count = h.count.Load()
	return s
}

// Snapshot is a point-in-time copy of a Histogram.
type Snapshot struct {
	Counts [NumBuckets]int64
	Sum    int64
	Count  int64
}
