package obs

import (
	"math"
	"math/rand"
	"sync"
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
	// Every positive sample lands inside [BucketLower, BucketUpper] of
	// its bucket, and adjacent buckets tile the positive range.
	for i := 1; i < NumBuckets; i++ {
		lo, hi := BucketLower(i), BucketUpper(i)
		if lo > hi {
			t.Fatalf("bucket %d: lower %d > upper %d", i, lo, hi)
		}
		if bucketIndex(lo) != i || bucketIndex(hi) != i {
			t.Fatalf("bucket %d bounds [%d,%d] do not map back to it", i, lo, hi)
		}
		if i < 63 && BucketLower(i+1) != hi+1 {
			t.Fatalf("gap between bucket %d (upper %d) and %d (lower %d)",
				i, hi, i+1, BucketLower(i+1))
		}
	}
	if BucketUpper(0) != 0 || BucketLower(0) != 0 {
		t.Fatal("bucket 0 must bound at 0")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 {
		t.Fatal("empty histogram quantile should be 0")
	}
	for _, v := range []int64{5, 9, 0, 100, 5} {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != 5 || s.Sum != 119 || s.Min != 0 || s.Max != 100 {
		t.Fatalf("snapshot count/sum/min/max wrong: %+v", s)
	}
	if m := s.Mean(); !almostEqualF(m, 119.0/5, 1e-9) {
		t.Fatalf("mean %g want %g", m, 119.0/5)
	}
	// p0 clamps to Min, p1 to Max.
	if q := s.Quantile(0); q != 0 {
		t.Fatalf("p0 = %d want 0", q)
	}
	if q := s.Quantile(1); q != 100 {
		t.Fatalf("p1 = %d want 100", q)
	}
}

// Quantile estimates are bucket upper bounds, so they can overshoot the
// exact quantile by at most one log2 bucket: estimate < 2 * true value
// (and never undershoot below the true value's bucket lower bound).
func TestHistogramQuantileErrorBound(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	h := NewHistogram()
	samples := make([]float64, 5000)
	for i := range samples {
		// Log-uniform spread across several orders of magnitude.
		v := int64(math.Exp(rng.Float64()*18)) + 1
		h.Record(v)
		samples[i] = float64(v)
	}
	exact := stats.Summarize(samples)
	snap := h.Snapshot()
	check := func(name string, est int64, exactQ float64) {
		if float64(est) < exactQ/2 || float64(est) >= exactQ*2 {
			t.Errorf("%s: histogram %d vs exact %g exceeds factor-2 bound",
				name, est, exactQ)
		}
	}
	check("p50", snap.Quantile(0.50), exact.P50)
	check("p90", snap.Quantile(0.90), exact.P90)
	check("p99", snap.Quantile(0.99), exact.P99)
	if !almostEqualF(snap.Mean(), exact.Mean, exact.Mean*1e-9) {
		t.Errorf("mean is exact by construction: %g vs %g", snap.Mean(), exact.Mean)
	}
}

// Record is documented lock-free and safe for concurrent use; run under
// -race with checks that nothing is lost.
func TestHistogramConcurrentRecord(t *testing.T) {
	h := NewHistogram()
	const goroutines = 8
	const perG = 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.Record(int64(g*perG + i))
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.Count != goroutines*perG {
		t.Fatalf("count %d want %d", s.Count, goroutines*perG)
	}
	const n = goroutines * perG
	if s.Sum != n*(n-1)/2 {
		t.Fatalf("sum %d want %d", s.Sum, n*(n-1)/2)
	}
	if s.Min != 0 || s.Max != n-1 {
		t.Fatalf("min/max %d/%d want 0/%d", s.Min, s.Max, n-1)
	}
	var bucketTotal int64
	for _, c := range s.Buckets {
		bucketTotal += c
	}
	if bucketTotal != s.Count {
		t.Fatalf("bucket total %d != count %d", bucketTotal, s.Count)
	}
}

func TestHistogramSummaryScale(t *testing.T) {
	h := NewHistogram()
	for _, v := range []int64{2200, 4400} { // 1µs and 2µs at 2200 ticks/µs
		h.Record(v)
	}
	sum := h.Snapshot().Summary(1.0 / 2200)
	if sum.Count != 2 {
		t.Fatalf("count %d want 2", sum.Count)
	}
	if !almostEqualF(sum.Mean, 1.5, 1e-9) {
		t.Fatalf("scaled mean %g want 1.5", sum.Mean)
	}
	if !almostEqualF(sum.Min, 1, 1e-9) || !almostEqualF(sum.Max, 2, 1e-9) {
		t.Fatalf("scaled min/max %g/%g want 1/2", sum.Min, sum.Max)
	}
	if zero := (HistogramSnapshot{}).Summary(0); zero.Count != 0 {
		t.Fatalf("empty summary should be zero: %+v", zero)
	}
}

func almostEqualF(a, b, eps float64) bool { return math.Abs(a-b) <= eps }
