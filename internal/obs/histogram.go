package obs

import (
	"math"
	"math/bits"
	"sync/atomic"

	"repro/internal/stats"
)

// NumBuckets is the fixed bucket count of a Histogram: bucket 0 holds
// non-positive samples, bucket i (1 ≤ i < NumBuckets) holds samples whose
// highest set bit is i-1, i.e. the value range [2^(i-1), 2^i - 1]. The
// last bucket additionally absorbs everything at or beyond 2^(NumBuckets-2).
const NumBuckets = 64

// Histogram is a fixed-bucket log2 histogram of int64 samples
// (virtual-time ticks, wall nanoseconds, …). Recording is lock-free,
// allocation-free and safe for concurrent use, so it can be called from
// lock hot paths and sched_switch-style hooks. Create with NewHistogram;
// a Histogram must not be copied after first use.
type Histogram struct {
	buckets [NumBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64
	min     atomic.Int64 // valid only while count > 0
	max     atomic.Int64
}

// NewHistogram returns an empty histogram.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	h.max.Store(math.MinInt64)
	return h
}

// BucketIndex maps a sample to its bucket (see NumBuckets for the
// layout). Exported for value-type histograms that share the bucket
// scheme, e.g. the flight recorder's per-window latency histograms.
func BucketIndex(v int64) int { return bucketIndex(v) }

// bucketIndex maps a sample to its bucket.
func bucketIndex(v int64) int {
	if v <= 0 {
		return 0
	}
	idx := bits.Len64(uint64(v)) // 1..63 for positive int64
	if idx >= NumBuckets {
		idx = NumBuckets - 1
	}
	return idx
}

// BucketUpper returns the inclusive upper bound of bucket i (the value
// used as the quantile estimate for samples landing there).
func BucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// BucketLower returns the inclusive lower bound of bucket i.
func BucketLower(i int) int64 {
	if i <= 0 {
		return 0
	}
	return int64(1) << uint(i-1)
}

// Record adds one sample. Zero-allocation and concurrency-safe.
func (h *Histogram) Record(v int64) {
	h.buckets[bucketIndex(v)].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
	for {
		cur := h.min.Load()
		if v >= cur || h.min.CompareAndSwap(cur, v) {
			break
		}
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			break
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of recorded samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Snapshot returns a consistent-enough copy for reporting. (Individual
// loads are atomic; a snapshot taken during concurrent recording may be
// mid-update by at most the in-flight samples.)
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	s.Count = h.count.Load()
	s.Sum = h.sum.Load()
	if s.Count > 0 {
		s.Min = h.min.Load()
		s.Max = h.max.Load()
	}
	for i := range s.Buckets {
		s.Buckets[i] = h.buckets[i].Load()
	}
	return s
}

// Quantile returns the estimated p-quantile (0..1); see
// HistogramSnapshot.Quantile.
func (h *Histogram) Quantile(p float64) int64 {
	return h.Snapshot().Quantile(p)
}

// HistogramSnapshot is a point-in-time copy of a Histogram.
type HistogramSnapshot struct {
	Count   int64
	Sum     int64
	Min     int64
	Max     int64
	Buckets [NumBuckets]int64
}

// Mean returns the exact mean of the recorded samples (the sum is exact
// even though bucket placement is approximate).
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// Quantile estimates the p-quantile (0..1) by locating the bucket that
// holds the p-th sample and interpolating linearly within it, assuming
// the bucket's samples are spread uniformly over its value range; the
// result is clamped to the observed Min/Max (so p=0 and p=1 are exact).
// The estimate always stays inside the true quantile's log2 bucket, so
// the relative error remains bounded by one bucket (estimate/true < 2,
// true/estimate < 2); interpolation removes the former systematic
// upper-bound bias, which overestimated by up to 2×.
func (s HistogramSnapshot) Quantile(p float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if p <= 0 {
		return s.Min
	}
	if p >= 1 {
		return s.Max
	}
	rank := int64(p * float64(s.Count-1))
	var cum int64
	for i, c := range s.Buckets {
		cum += c
		if cum > rank {
			lo, hi := BucketLower(i), BucketUpper(i)
			// Place the bucket's c samples at the midpoints of c equal
			// sub-ranges: sample j (0-based within the bucket) sits at
			// lo + span*(j+0.5)/c.
			pos := rank - (cum - c)
			v := lo + int64(float64(hi-lo)*(float64(pos)+0.5)/float64(c))
			if v > s.Max {
				v = s.Max
			}
			if v < s.Min {
				v = s.Min
			}
			return v
		}
	}
	return s.Max
}

// Summary converts the snapshot to a stats.Summary with scale applied to
// every value field (e.g. 1/2200 to report virtual-time ticks as µs).
// StdDev is approximated from bucket midpoints.
func (s HistogramSnapshot) Summary(scale float64) stats.Summary {
	if scale == 0 {
		scale = 1
	}
	out := stats.Summary{Count: int(s.Count)}
	if s.Count == 0 {
		return out
	}
	out.Mean = s.Mean() * scale
	out.Min = float64(s.Min) * scale
	out.Max = float64(s.Max) * scale
	out.Sum = float64(s.Sum) * scale
	out.P50 = float64(s.Quantile(0.50)) * scale
	out.P90 = float64(s.Quantile(0.90)) * scale
	out.P99 = float64(s.Quantile(0.99)) * scale
	// Variance from bucket midpoints (approximate, like the quantiles).
	var sq float64
	mean := s.Mean()
	for i, c := range s.Buckets {
		if c == 0 {
			continue
		}
		mid := (float64(BucketLower(i)) + float64(BucketUpper(i))) / 2
		if i == 0 {
			mid = 0
		}
		d := mid - mean
		sq += float64(c) * d * d
	}
	out.StdDev = math.Sqrt(sq/float64(s.Count)) * scale
	return out
}
