package dist

import "math"

// Zipf draws keys from [0, n) with Zipfian popularity: rank k is drawn with
// probability proportional to 1/(k+1)^theta. The hash-table microbenchmark
// in the paper uses a Zipfian distribution "randomly shifted across the
// value range to target different locks"; Shift implements that.
type Zipf struct {
	n     int
	shift int
	rng   *Rand
	// Inverse-CDF table over ranks. For the bucket counts used by the
	// workloads (≤ a few thousand) an exact table is cheap and exact.
	cdf []float64
}

// NewZipf returns a Zipfian source over [0, n) with exponent theta
// (typically 0.99 for YCSB-like skew).
func NewZipf(n int, theta float64, rng *Rand) *Zipf {
	if n <= 0 {
		panic("dist: NewZipf with non-positive n")
	}
	z := &Zipf{n: n, rng: rng, cdf: make([]float64, n)}
	sum := 0.0
	for k := 0; k < n; k++ {
		sum += 1 / math.Pow(float64(k+1), theta)
		z.cdf[k] = sum
	}
	for k := range z.cdf {
		z.cdf[k] /= sum
	}
	return z
}

// Shift moves the popularity peak by delta positions (mod N). The paper's
// hash-table workload re-shifts periodically so the hot bucket moves.
func (z *Zipf) Shift(delta int) {
	z.shift = (z.shift + delta) % z.n
	if z.shift < 0 {
		z.shift += z.n
	}
}

// ShiftRandom re-targets the peak at a uniformly random position.
func (z *Zipf) ShiftRandom() { z.shift = z.rng.Intn(z.n) }

// Next draws the next key.
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	// Binary search the CDF for the drawn rank.
	lo, hi := 0, z.n-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return (lo + z.shift) % z.n
}

// SelfSimilar draws keys from [0, n) under the self-similar distribution
// with the given skew: the first skew*N keys receive (1-skew) of the
// accesses, recursively (the 80/20 rule generalized). PiBench uses this
// with skew 0.2 for the database-index experiment.
type SelfSimilar struct {
	n    int
	skew float64
	rng  *Rand
}

// NewSelfSimilar returns a self-similar source over [0, n).
func NewSelfSimilar(n int, skew float64, rng *Rand) *SelfSimilar {
	if n <= 0 {
		panic("dist: NewSelfSimilar with non-positive n")
	}
	if skew <= 0 || skew >= 1 {
		panic("dist: NewSelfSimilar skew must be in (0,1)")
	}
	return &SelfSimilar{n: n, skew: skew, rng: rng}
}

// Next draws the next key, by the standard closed form from Gray et al.,
// "Quickly Generating Billion-Record Synthetic Databases".
func (s *SelfSimilar) Next() int {
	u := s.rng.Float64()
	k := int(float64(s.n) * math.Pow(u, math.Log(s.skew)/math.Log(1-s.skew)))
	if k >= s.n {
		k = s.n - 1
	}
	return k
}
