package obs

import (
	"encoding/json"
	"math"
	"math/bits"
)

// NumBuckets is the fixed bucket count of a Histogram: bucket 0 holds
// non-positive samples, bucket i (1 ≤ i < NumBuckets) holds samples whose
// highest set bit is i-1, i.e. the value range [2^(i-1), 2^i - 1]. The
// last bucket additionally absorbs everything at or beyond 2^(NumBuckets-2).
const NumBuckets = 64

// Histogram is a fixed-bucket log2 histogram of int64 samples
// (virtual-time ticks, wall nanoseconds, …): the repo's one latency
// histogram, behind the per-lock hold and handover columns, the flight
// recorder's windowed acquire latency, the open-loop response and wait
// percentiles and the native monitor's probe overshoot. It is a plain
// value: the zero value is empty, assignment copies the recording and
// Record allocates nothing. It is not safe for concurrent use; a
// recorder that goroutines share guards it with a lock.
type Histogram struct {
	Count   int64
	Sum     int64
	Min     int64 // valid only while Count > 0
	Max     int64
	Buckets [NumBuckets]int64
}

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

// bucketUpper returns the inclusive upper bound of bucket i.
func bucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 63 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// bucketLower returns the inclusive lower bound of bucket i.
func bucketLower(i int) int64 {
	if i <= 0 {
		return 0
	}
	return int64(1) << uint(i-1)
}

// Record adds one sample.
func (h *Histogram) Record(v int64) {
	if h.Count == 0 || v < h.Min {
		h.Min = v
	}
	if h.Count == 0 || v > h.Max {
		h.Max = v
	}
	h.Count++
	h.Sum += v
	h.Buckets[bucketIndex(v)]++
}

// Mean returns the exact mean of the recorded samples (the sum is exact
// even though bucket placement is approximate).
func (h Histogram) Mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// Quantile estimates the p-quantile (0..1) by locating the bucket that
// holds the p-th sample and interpolating linearly within it, assuming
// the bucket's samples are spread uniformly over its value range; the
// result is clamped to the observed Min/Max (so p=0 and p=1 are exact).
// The estimate always stays inside the true quantile's log2 bucket, so
// the relative error remains bounded by one bucket (estimate/true < 2,
// true/estimate < 2); interpolation removes the former systematic
// upper-bound bias, which overestimated by up to 2×.
func (h Histogram) Quantile(p float64) int64 {
	if h.Count == 0 {
		return 0
	}
	if p <= 0 {
		return h.Min
	}
	if p >= 1 {
		return h.Max
	}
	rank := int64(p * float64(h.Count-1))
	var cum int64
	for i, c := range h.Buckets {
		cum += c
		if cum > rank {
			lo, hi := bucketLower(i), bucketUpper(i)
			// Place the bucket's c samples at the midpoints of c equal
			// sub-ranges: sample j (0-based within the bucket) sits at
			// lo + span*(j+0.5)/c.
			pos := rank - (cum - c)
			v := lo + int64(float64(hi-lo)*(float64(pos)+0.5)/float64(c))
			return max(min(v, h.Max), h.Min)
		}
	}
	return h.Max
}

// histogramJSON is the wire form of a Histogram: sparse (bucket, count)
// pairs in ascending bucket order, so a mostly-empty histogram (a
// flight-recorder window) costs a few bytes instead of 64 zeros.
type histogramJSON struct {
	Count int64   `json:"n"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	B     []int64 `json:"b,omitempty"`
}

// MarshalJSON emits the sparse wire form; output is deterministic for a
// given histogram value.
func (h Histogram) MarshalJSON() ([]byte, error) {
	j := histogramJSON{Count: h.Count, Sum: h.Sum, Min: h.Min, Max: h.Max}
	for i, c := range h.Buckets {
		if c != 0 {
			j.B = append(j.B, int64(i), c)
		}
	}
	return json.Marshal(j)
}

// UnmarshalJSON restores the exact value MarshalJSON was called on.
func (h *Histogram) UnmarshalJSON(b []byte) error {
	var j histogramJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*h = Histogram{Count: j.Count, Sum: j.Sum, Min: j.Min, Max: j.Max}
	for i := 0; i+1 < len(j.B); i += 2 {
		if idx := j.B[i]; idx >= 0 && idx < NumBuckets {
			h.Buckets[idx] = j.B[i+1]
		}
	}
	return nil
}
