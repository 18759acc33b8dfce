// Package dist provides the deterministic pseudo-random number generator
// and the key-popularity distributions used by the benchmark workloads:
// uniform, Zipfian (hash-table microbenchmark) and self-similar (the
// PiBench-style database-index workload, skew factor 0.2).
//
// Everything in this package is seedable and allocation-free on the hot
// path so that simulation runs are exactly reproducible.
package dist

// Rand is a small, fast xorshift64* PRNG. It is not cryptographically
// secure; it exists to make simulation runs deterministic and cheap.
// The zero value is invalid: use NewRand.
type Rand struct {
	state uint64
}

// NewRand returns a generator seeded with seed. A zero seed is replaced
// with a fixed non-zero constant, since xorshift has an all-zero fixed
// point.
func NewRand(seed uint64) *Rand {
	if seed == 0 {
		seed = 0x9E3779B97F4A7C15
	}
	return &Rand{state: seed}
}

// Uint64 returns the next 64 pseudo-random bits.
func (r *Rand) Uint64() uint64 {
	x := r.state
	x ^= x >> 12
	x ^= x << 25
	x ^= x >> 27
	r.state = x
	return x * 0x2545F4914F6CDD1D
}

// Intn returns a pseudo-random int in [0, n). It panics if n <= 0.
func (r *Rand) Intn(n int) int {
	if n <= 0 {
		panic("dist: Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// Int63n returns a pseudo-random int64 in [0, n). It panics if n <= 0.
func (r *Rand) Int63n(n int64) int64 {
	if n <= 0 {
		panic("dist: Int63n with non-positive n")
	}
	return int64(r.Uint64() % uint64(n))
}

// Float64 returns a pseudo-random float64 in [0, 1).
func (r *Rand) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Split derives an independent generator from r's stream, so concurrent
// simulated threads can each own a stream derived from one experiment seed.
func (r *Rand) Split() *Rand {
	return NewRand(r.Uint64() | 1)
}
