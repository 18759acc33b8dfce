package dist

import (
	"testing"
	"testing/quick"
)

func TestRandDeterminism(t *testing.T) {
	a, b := NewRand(7), NewRand(7)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same seed must produce same stream")
		}
	}
}

func TestRandZeroSeed(t *testing.T) {
	r := NewRand(0)
	if r.Uint64() == 0 && r.Uint64() == 0 {
		t.Fatal("zero seed must not get stuck at zero")
	}
}

func TestRandSplitIndependent(t *testing.T) {
	r := NewRand(1)
	s := r.Split()
	same := 0
	for i := 0; i < 100; i++ {
		if r.Uint64() == s.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Fatalf("split stream tracks parent: %d collisions", same)
	}
}

func TestIntnRange(t *testing.T) {
	check := func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%100) + 1
		r := NewRand(seed)
		for i := 0; i < 50; i++ {
			v := r.Intn(n)
			if v < 0 || v >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFloat64Range(t *testing.T) {
	r := NewRand(3)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of range: %g", f)
		}
	}
}

func TestIntnPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) should panic")
		}
	}()
	NewRand(1).Intn(0)
}

// histogram counts how often each key in [0, n) comes up in draws
// calls of next.
func histogram(next func() int, n, draws int) []int {
	h := make([]int, n)
	for i := 0; i < draws; i++ {
		h[next()]++
	}
	return h
}

func TestZipfSkew(t *testing.T) {
	z := NewZipf(100, 0.99, NewRand(5))
	h := histogram(z.Next, 100, 200000)
	if h[0] <= h[50] {
		t.Fatalf("rank 0 (%d draws) should dominate rank 50 (%d draws)", h[0], h[50])
	}
	frac0 := float64(h[0]) / 200000
	if frac0 < 0.1 {
		t.Fatalf("rank-0 frequency %.3f too flat for theta=0.99", frac0)
	}
}

func TestZipfShiftMovesPeak(t *testing.T) {
	z := NewZipf(100, 0.99, NewRand(5))
	z.Shift(40)
	h := histogram(z.Next, 100, 200000)
	peak := 0
	for k, c := range h {
		if c > h[peak] {
			peak = k
		}
	}
	if peak != 40 {
		t.Fatalf("peak at %d, want 40 after Shift(40)", peak)
	}
	// Negative shifts wrap.
	z2 := NewZipf(10, 0.99, NewRand(5))
	z2.Shift(-3)
	for i := 0; i < 1000; i++ {
		k := z2.Next()
		if k < 0 || k >= 10 {
			t.Fatalf("shifted key %d out of range", k)
		}
	}
}

func TestZipfShiftRandomInRange(t *testing.T) {
	z := NewZipf(50, 0.9, NewRand(11))
	for i := 0; i < 20; i++ {
		z.ShiftRandom()
		k := z.Next()
		if k < 0 || k >= 50 {
			t.Fatalf("key %d out of range after ShiftRandom", k)
		}
	}
}

func TestSelfSimilarSkew(t *testing.T) {
	// skew 0.2: first 20% of the keyspace should receive ~80% of accesses.
	s := NewSelfSimilar(1000, 0.2, NewRand(5))
	h := histogram(s.Next, 1000, 200000)
	hot := 0
	for k := 0; k < 200; k++ {
		hot += h[k]
	}
	frac := float64(hot) / 200000
	if frac < 0.7 || frac > 0.9 {
		t.Fatalf("hot-20%% fraction %.3f, want ~0.8", frac)
	}
}

func TestSelfSimilarRange(t *testing.T) {
	check := func(seed uint64) bool {
		s := NewSelfSimilar(64, 0.2, NewRand(seed))
		for i := 0; i < 200; i++ {
			k := s.Next()
			if k < 0 || k >= 64 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, nil); err != nil {
		t.Fatal(err)
	}
}

func TestConstructorPanics(t *testing.T) {
	cases := []func(){
		func() { NewZipf(0, 0.99, NewRand(1)) },
		func() { NewSelfSimilar(10, 0, NewRand(1)) },
		func() { NewSelfSimilar(10, 1, NewRand(1)) },
		func() { NewRand(1).Int63n(0) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: expected panic", i)
				}
			}()
			f()
		}()
	}
}
