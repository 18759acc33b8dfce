package obs

import (
	"math"
	"sort"
	"testing"

	"repro/internal/dist"
)

// Percentile-accuracy harness: feed closed-form distributions through
// the log2 histogram and bound Quantile()'s error at p50–p99.9 against
// both the analytic quantile and the exact empirical quantile of the
// same samples. The structural guarantee of a log2 histogram with
// within-bucket linear interpolation is "right bucket, interpolated" —
// at worst a factor-2 band — but for smooth distributions with enough
// samples the interpolation lands much closer; these tests pin that so
// a regression to bucket-edge reporting (the pre-PR 6 behaviour: up to
// 2× inflation at every percentile) fails loudly.

var accuracyPercentiles = []float64{0.50, 0.95, 0.99, 0.999}

// exactQuantile is the reference: the nearest-rank quantile of the raw
// samples.
func exactQuantile(sorted []int64, p float64) int64 {
	idx := int(math.Ceil(p*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// checkQuantiles records samples, then asserts each percentile estimate
// is within its tolerance of the exact empirical quantile and within
// the structural factor-2 band of the analytic quantile. relTol is
// indexed like accuracyPercentiles: the tail percentiles get looser
// bounds because interpolation assumes a uniform within-bucket spread,
// which a decaying tail violates more the wider the bucket.
func checkQuantiles(t *testing.T, name string, samples []int64, analytic func(p float64) float64, relTol []float64) {
	t.Helper()
	var s Histogram
	for _, v := range samples {
		s.Record(v)
	}
	sorted := append([]int64(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	for i, p := range accuracyPercentiles {
		est := float64(s.Quantile(p))
		exact := float64(exactQuantile(sorted, p))
		if rel := math.Abs(est-exact) / exact; rel > relTol[i] {
			t.Errorf("%s p%g: estimate %.0f vs exact %.0f (rel err %.3f > %.2f)",
				name, p*100, est, exact, rel, relTol[i])
		}
		th := analytic(p)
		if est < th/2 || est > th*2 {
			t.Errorf("%s p%g: estimate %.0f outside factor-2 band of analytic %.0f",
				name, p*100, est, th)
		}
	}
}

// TestQuantileAccuracyExponential: exponential latencies (the service
// and interarrival model of the open-loop engine). Analytic quantile:
// q(p) = -mean·ln(1-p).
func TestQuantileAccuracyExponential(t *testing.T) {
	const mean = 22_000.0
	r := dist.NewRand(17)
	samples := make([]int64, 200_000)
	for i := range samples {
		samples[i] = int64(-math.Log(1-r.Float64()) * mean)
	}
	checkQuantiles(t, "exponential", samples,
		func(p float64) float64 { return -mean * math.Log(1-p) },
		[]float64{0.15, 0.25, 0.35, 0.45})
}

// TestQuantileAccuracyBimodal: a fast-path/slow-path mixture — 90% near
// 10 µs, 10% near 1 ms, several log2 decades apart. This is the shape
// that most punishes bucket-edge quantile reporting, and the shape SLO
// percentiles actually have under occasional lock convoys. The split is
// 0.90 so every tested percentile sits in a mode's interior — a
// quantile exactly on the mixture boundary is unstable for any
// estimator, histogram or not.
func TestQuantileAccuracyBimodal(t *testing.T) {
	const (
		fastLo, fastHi = 16_000, 28_000       // uniform fast mode
		slowLo, slowHi = 2_000_000, 2_400_000 // uniform slow mode
		fastShare      = 0.90
	)
	r := dist.NewRand(23)
	samples := make([]int64, 200_000)
	for i := range samples {
		if r.Float64() < fastShare {
			samples[i] = fastLo + int64(r.Float64()*float64(fastHi-fastLo))
		} else {
			samples[i] = slowLo + int64(r.Float64()*float64(slowHi-slowLo))
		}
	}
	analytic := func(p float64) float64 {
		if p < fastShare {
			return fastLo + p/fastShare*float64(fastHi-fastLo)
		}
		return slowLo + (p-fastShare)/(1-fastShare)*float64(slowHi-slowLo)
	}
	checkQuantiles(t, "bimodal", samples, analytic, []float64{0.20, 0.30, 0.30, 0.30})
	// The mode-discrimination property: p50 must sit in the fast mode
	// and p99 in the slow mode — a histogram bug that smears the modes
	// together (e.g. midpoint reporting across empty buckets) breaks
	// this even if each estimate is within its factor-2 band.
	var s Histogram
	for _, v := range samples {
		s.Record(v)
	}
	if q := s.Quantile(0.50); q < fastLo/2 || q > fastHi*2 {
		t.Errorf("bimodal p50 %d not in fast mode [%d,%d]×2", q, fastLo, fastHi)
	}
	if q := s.Quantile(0.99); q < slowLo/2 || q > slowHi*2 {
		t.Errorf("bimodal p99 %d not in slow mode [%d,%d]×2", q, slowLo, slowHi)
	}
}

// TestQuantileInterpolationPinned pins the PR 6 interpolation fix
// directly: a bucket holding a uniform spread must interpolate within
// it, not report the bucket's upper edge. 10k samples uniform in
// [65536, 131072) all share bucket 17; p50 of the true data is ≈98304,
// and edge reporting would say 131071 (33% high).
func TestQuantileInterpolationPinned(t *testing.T) {
	r := dist.NewRand(5)
	var h Histogram
	for i := 0; i < 10_000; i++ {
		h.Record(65536 + int64(r.Float64()*65536))
	}
	q := h.Quantile(0.50)
	if q < 90_000 || q > 106_000 {
		t.Errorf("uniform-bucket p50 = %d, want ≈98304 (interpolated, not bucket edge)", q)
	}
}

// TestQuantileClampedToObserved: interpolation never reports outside
// [Min, Max] even at the extreme percentiles.
func TestQuantileClampedToObserved(t *testing.T) {
	var s Histogram
	for _, v := range []int64{1000, 1100, 1200} {
		s.Record(v)
	}
	if q := s.Quantile(0.999); q > 1200 {
		t.Errorf("p99.9 = %d exceeds observed max 1200", q)
	}
	if q := s.Quantile(0.0001); q < 1000 {
		t.Errorf("p0.01 = %d below observed min 1000", q)
	}
}
