package obs

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/stats"
)

func TestBucketBoundaries(t *testing.T) {
	cases := []struct {
		v    int64
		want int
	}{
		{math.MinInt64, 0},
		{-1, 0},
		{0, 0},
		{1, 1},
		{2, 2},
		{3, 2},
		{4, 3},
		{7, 3},
		{8, 4},
		{1 << 20, 21},
		{1<<20 + 1, 21},
		{1<<21 - 1, 21},
		{math.MaxInt64, NumBuckets - 1},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.want {
			t.Errorf("bucketIndex(%d) = %d want %d", c.v, got, c.want)
		}
	}
	// Every positive sample lands inside [bucketLower, bucketUpper] of
	// its bucket, and adjacent buckets tile the positive range.
	for i := 1; i < NumBuckets; i++ {
		lo, hi := bucketLower(i), bucketUpper(i)
		if lo > hi {
			t.Fatalf("bucket %d: lower %d > upper %d", i, lo, hi)
		}
		if bucketIndex(lo) != i || bucketIndex(hi) != i {
			t.Fatalf("bucket %d bounds [%d,%d] do not map back to it", i, lo, hi)
		}
		if i < 63 && bucketLower(i+1) != hi+1 {
			t.Fatalf("gap between bucket %d (upper %d) and %d (lower %d)",
				i, hi, i+1, bucketLower(i+1))
		}
	}
	if bucketUpper(0) != 0 || bucketLower(0) != 0 {
		t.Fatal("bucket 0 must bound at 0")
	}
}

func TestHistogramBasics(t *testing.T) {
	var h Histogram // the zero value is empty
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram quantile and mean should be 0")
	}
	for _, v := range []int64{5, 9, 0, 100, 5} {
		h.Record(v)
	}
	if h.Count != 5 || h.Sum != 119 || h.Min != 0 || h.Max != 100 {
		t.Fatalf("count/sum/min/max wrong: %+v", h)
	}
	if m := h.Mean(); !almostEqualF(m, 119.0/5, 1e-9) {
		t.Fatalf("mean %g want %g", m, 119.0/5)
	}
	// p0 clamps to Min, p1 to Max.
	if q := h.Quantile(0); q != 0 {
		t.Fatalf("p0 = %d want 0", q)
	}
	if q := h.Quantile(1); q != 100 {
		t.Fatalf("p1 = %d want 100", q)
	}
	// The first sample sets both Min and Max, even above zero.
	var one Histogram
	one.Record(7)
	if one.Min != 7 || one.Max != 7 {
		t.Fatalf("one sample: min/max %d/%d want 7/7", one.Min, one.Max)
	}
}

// Quantile estimates are bucket upper bounds, so they can overshoot the
// exact quantile by at most one log2 bucket: estimate < 2 * true value
// (and never undershoot below the true value's bucket lower bound).
func TestHistogramQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var h Histogram
	samples := make([]float64, 5000)
	for i := range samples {
		// Log-uniform spread across several orders of magnitude.
		v := int64(math.Exp(rng.Float64()*18)) + 1
		h.Record(v)
		samples[i] = float64(v)
	}
	for _, p := range []float64{0.50, 0.90, 0.99} {
		est, exactQ := h.Quantile(p), stats.Percentile(samples, p)
		if float64(est) < exactQ/2 || float64(est) >= exactQ*2 {
			t.Errorf("p%g: histogram %d vs exact %g exceeds factor-2 bound",
				p*100, est, exactQ)
		}
	}
	if exact := stats.Mean(samples); !almostEqualF(h.Mean(), exact, exact*1e-9) {
		t.Errorf("mean is exact by construction: %g vs %g", h.Mean(), exact)
	}
}

func almostEqualF(a, b, eps float64) bool { return math.Abs(a-b) <= eps }
