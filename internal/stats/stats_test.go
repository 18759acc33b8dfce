package stats

import (
	"math"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

// The TestSummarize* tests cover the sample-set statistics, Percentile
// and Mean.

func TestSummarizeBasic(t *testing.T) {
	in := []float64{4, 1, 3, 2}
	if m := Mean(in); !almostEqual(m, 2.5, 1e-9) {
		t.Fatalf("mean %g want 2.5", m)
	}
	if p := Percentile(in, 0.5); !almostEqual(p, 2.5, 1e-9) {
		t.Fatalf("p50 %g want 2.5", p)
	}
	if lo, hi := Percentile(in, 0), Percentile(in, 1); lo != 1 || hi != 4 {
		t.Fatalf("p0/p100 %g/%g want 1/4", lo, hi)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	if m, p := Mean(nil), Percentile(nil, 0.99); m != 0 || p != 0 {
		t.Fatalf("empty input should give zeros: mean %g p99 %g", m, p)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Percentile(in, 0.5)
	Mean(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("Percentile or Mean mutated its input")
	}
}

func TestSummarizeSingle(t *testing.T) {
	in := []float64{7}
	if p50, p99, m := Percentile(in, 0.5), Percentile(in, 0.99), Mean(in); p50 != 7 || p99 != 7 || m != 7 {
		t.Fatalf("single-sample statistics wrong: p50 %g p99 %g mean %g", p50, p99, m)
	}
}

// Welford's running update keeps the mean of huge samples finite, where
// summing first overflows, and the ascending pass makes the result
// independent of the samples' order, bit for bit.
func TestMeanWelford(t *testing.T) {
	big := []float64{math.MaxFloat64, math.MaxFloat64 / 2, math.MaxFloat64}
	if m := Mean(big); math.IsInf(m, 0) || m < math.MaxFloat64/2 {
		t.Fatalf("mean of huge samples %g, want finite", m)
	}
	in := []float64{0.1, 1e9, 3.3, 7e-5, 42, 0.7}
	rev := []float64{0.7, 42, 7e-5, 3.3, 1e9, 0.1}
	if a, b := Mean(in), Mean(rev); a != b {
		t.Fatalf("mean depends on sample order: %v vs %v", a, b)
	}
}

// Property: percentiles are monotone and bounded by min/max.
func TestSummarizePercentileBounds(t *testing.T) {
	check := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]float64, len(raw))
		lo, hi := float64(raw[0]), float64(raw[0])
		for i, v := range raw {
			samples[i] = float64(v)
			lo, hi = min(lo, samples[i]), max(hi, samples[i])
		}
		p50, p90, p99 := Percentile(samples, 0.5), Percentile(samples, 0.9), Percentile(samples, 0.99)
		return lo <= p50 && p50 <= p90 && p90 <= p99 && p99 <= hi
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFairnessFactorPerfect(t *testing.T) {
	f := FairnessFactor([]int64{100, 100, 100, 100})
	if !almostEqual(f, 0.5, 1e-9) {
		t.Fatalf("perfectly fair counts: got %g want 0.5", f)
	}
}

func TestFairnessFactorUnfair(t *testing.T) {
	f := FairnessFactor([]int64{1000, 1000, 0, 0})
	if !almostEqual(f, 1.0, 1e-9) {
		t.Fatalf("completely unfair counts: got %g want 1.0", f)
	}
}

func TestFairnessFactorEdge(t *testing.T) {
	if f := FairnessFactor(nil); f != 0.5 {
		t.Fatalf("empty: got %g want 0.5", f)
	}
	if f := FairnessFactor([]int64{0, 0}); f != 0.5 {
		t.Fatalf("zero total: got %g want 0.5", f)
	}
	// Single thread owns everything but is also the whole "top half".
	if f := FairnessFactor([]int64{42}); f != 1.0 {
		t.Fatalf("single thread: got %g want 1.0", f)
	}
}

// Property: fairness factor is always within [0.5, 1] for >=2 threads with
// positive totals, and permutation invariant.
func TestFairnessFactorProperty(t *testing.T) {
	check := func(raw []uint16) bool {
		if len(raw) < 2 {
			return true
		}
		ops := make([]int64, len(raw))
		var total int64
		for i, v := range raw {
			ops[i] = int64(v)
			total += int64(v)
		}
		f := FairnessFactor(ops)
		if total == 0 {
			return f == 0.5
		}
		if f < 0.5-1e-9 || f > 1+1e-9 {
			return false
		}
		// Reverse and recompute: must be invariant.
		rev := make([]int64, len(ops))
		for i := range ops {
			rev[i] = ops[len(ops)-1-i]
		}
		return almostEqual(f, FairnessFactor(rev), 1e-12)
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimelineBasics(t *testing.T) {
	var tl Timeline
	tl.Record(0, 1)
	tl.Record(10, 3)
	tl.Record(10, 3) // duplicate coalesced
	tl.Record(20, 2)
	if tl.Len() != 3 {
		t.Fatalf("len %d want 3", tl.Len())
	}
	cases := []struct {
		t, want int64
	}{{-5, 0}, {0, 1}, {5, 1}, {10, 3}, {15, 3}, {20, 2}, {100, 2}}
	for _, c := range cases {
		if got := tl.At(c.t); got != c.want {
			t.Fatalf("At(%d) = %d want %d", c.t, got, c.want)
		}
	}
}

func TestTimelineTimeWeightedMean(t *testing.T) {
	var tl Timeline
	tl.Record(0, 2)
	tl.Record(10, 4)
	// over [0,20): 2 for 10 ticks, 4 for 10 ticks -> mean 3
	if m := tl.TimeWeightedMean(0, 20); !almostEqual(m, 3, 1e-9) {
		t.Fatalf("weighted mean %g want 3", m)
	}
	if m := tl.TimeWeightedMean(10, 20); !almostEqual(m, 4, 1e-9) {
		t.Fatalf("weighted mean %g want 4", m)
	}
	var empty Timeline
	if m := empty.TimeWeightedMean(0, 10); m != 0 {
		t.Fatalf("empty mean %g want 0", m)
	}
}

func TestTimelineSample(t *testing.T) {
	var tl Timeline
	tl.Record(0, 1)
	tl.Record(50, 5)
	got := tl.Sample(0, 100, 3)
	if len(got) != 3 || got[0] != 1 || got[1] != 5 || got[2] != 5 {
		t.Fatalf("sample %v want [1 5 5]", got)
	}
	if s := tl.Sample(0, 100, 0); s != nil {
		t.Fatalf("n=0 sample should be nil, got %v", s)
	}
	if s := tl.Sample(0, 0, 1); len(s) != 1 || s[0] != 1 {
		t.Fatalf("single-point sample %v", s)
	}
}

func TestTimelineMinMax(t *testing.T) {
	var tl Timeline
	if _, _, ok := tl.MinMax(0, 10); ok {
		t.Fatal("empty timeline should report !ok")
	}
	tl.Record(0, 5)
	tl.Record(10, 1)
	tl.Record(20, 9)
	min, max, ok := tl.MinMax(0, 30)
	if !ok || min != 1 || max != 9 {
		t.Fatalf("minmax = %d,%d,%v want 1,9,true", min, max, ok)
	}
	min, max, ok = tl.MinMax(5, 9)
	if !ok || min != 5 || max != 5 {
		t.Fatalf("window minmax = %d,%d,%v want 5,5,true", min, max, ok)
	}
}

// sortedPercentile is the sort definition PercentileInPlace must match:
// interpolate between ranks floor(pos) and floor(pos)+1 of a sorted copy.
func sortedPercentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	pos := p * float64(len(s)-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// TestPercentileSelectsLikeSort: the selection returns the sort
// definition's bits on random, tie-heavy and tiny inputs, at the p99
// Collect reads and across the range.
func TestPercentileSelectsLikeSort(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	var inputs [][]float64
	for _, n := range []int{1, 2, 3, 5, 100, 513, 4096} {
		random, ties, sorted := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := range n {
			random[i] = float64(rng.Int64N(1 << 40))
			ties[i] = float64(rng.IntN(3))
			sorted[i] = float64(i / 4)
		}
		inputs = append(inputs, random, ties, sorted, slices.Repeat([]float64{7}, n))
		rev := slices.Clone(sorted)
		slices.Reverse(rev)
		inputs = append(inputs, rev)
	}
	inputs = append(inputs, []float64{2, 1}, []float64{-0.5, 3.25})
	for _, in := range inputs {
		ref := slices.Sorted(slices.Values(in))
		for _, p := range []float64{0, 0.01, 0.5, 0.9, 0.99, 0.999, 1} {
			want := sortedPercentile(in, p)
			buf := slices.Clone(in)
			got := PercentileInPlace(buf, p)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("n=%d p=%g: got %v, sort definition %v", len(in), p, got, want)
			}
			if slices.Sort(buf); !slices.Equal(buf, ref) {
				t.Fatalf("n=%d p=%g: the selection lost or changed a sample", len(in), p)
			}
		}
	}
}
