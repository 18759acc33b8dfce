package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEqual(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestSummarizeBasic(t *testing.T) {
	s := Summarize([]float64{4, 1, 3, 2})
	if s.Count != 4 || s.Min != 1 || s.Max != 4 {
		t.Fatalf("bad count/min/max: %+v", s)
	}
	if !almostEqual(s.Mean, 2.5, 1e-9) {
		t.Fatalf("mean %g want 2.5", s.Mean)
	}
	if !almostEqual(s.P50, 2.5, 1e-9) {
		t.Fatalf("p50 %g want 2.5", s.P50)
	}
	if !almostEqual(s.Sum, 10, 1e-9) {
		t.Fatalf("sum %g want 10", s.Sum)
	}
}

func TestSummarizeEmpty(t *testing.T) {
	s := Summarize(nil)
	if s.Count != 0 || s.Mean != 0 {
		t.Fatalf("empty summary should be zero: %+v", s)
	}
}

func TestSummarizeDoesNotMutate(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatal("Summarize mutated its input")
	}
}

func TestSummarizeSingle(t *testing.T) {
	s := Summarize([]float64{7})
	if s.P50 != 7 || s.P99 != 7 || s.StdDev != 0 {
		t.Fatalf("single-sample summary wrong: %+v", s)
	}
}

// Regression: the naive E[x²]−E[x]² variance cancels catastrophically
// when the mean dwarfs the spread (float64 keeps ~15-16 significant
// digits, so at offset 1e12 the squares lose the ±1 spread entirely).
// Welford's update must recover the exact deviation regardless of
// offset.
func TestSummarizeVarianceLargeOffset(t *testing.T) {
	const offset = 1e12
	// Samples offset±1: true stddev is 1 whatever the offset.
	samples := make([]float64, 1000)
	for i := range samples {
		if i%2 == 0 {
			samples[i] = offset + 1
		} else {
			samples[i] = offset - 1
		}
	}
	// Welford keeps a small rounding residue at this offset (~1e-4);
	// the naive formula loses the spread entirely and returns 0.
	s := Summarize(samples)
	if !almostEqual(s.StdDev, 1, 1e-3) {
		t.Fatalf("stddev at offset %g: got %g want 1", offset, s.StdDev)
	}
	// Shifting samples must not change the spread.
	small := make([]float64, len(samples))
	for i, v := range samples {
		small[i] = v - offset
	}
	if d := Summarize(small).StdDev; !almostEqual(s.StdDev, d, 1e-3) {
		t.Fatalf("stddev not shift-invariant: %g (offset) vs %g (centered)", s.StdDev, d)
	}
}

// Property: percentiles are monotone and bounded by min/max.
func TestSummarizePercentileBounds(t *testing.T) {
	check := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		samples := make([]float64, len(raw))
		for i, v := range raw {
			samples[i] = float64(v)
		}
		s := Summarize(samples)
		return s.Min <= s.P50 && s.P50 <= s.P90 && s.P90 <= s.P99 && s.P99 <= s.Max
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
