// Package stats provides the statistics the evaluation harness reports:
// means and percentiles of latency samples, Dice's fairness factor, and
// step time series (e.g. the runnable-thread timeline of Figure 5a).
package stats

import (
	"math"
	"sort"
)

// Summary describes a sample set.
type Summary struct {
	Count         int
	Mean          float64
	Min, Max      float64
	P50, P90, P99 float64
	StdDev        float64
	Sum           float64
}

// Summarize computes a Summary over samples. It does not modify samples.
// An empty input yields the zero Summary.
func Summarize(samples []float64) Summary {
	if len(samples) == 0 {
		return Summary{}
	}
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	// Welford's one-pass update: the naive E[x²]−E[x]² form cancels
	// catastrophically when the mean dwarfs the spread (e.g. large
	// tick-timestamp samples), yielding zero or negative variance.
	var mean, m2, sum float64
	for i, v := range s {
		sum += v
		d := v - mean
		mean += d / float64(i+1)
		m2 += d * (v - mean)
	}
	variance := m2 / float64(len(s))
	if variance < 0 {
		variance = 0
	}
	return Summary{
		Count:  len(s),
		Mean:   mean,
		Min:    s[0],
		Max:    s[len(s)-1],
		P50:    percentileSorted(s, 0.50),
		P90:    percentileSorted(s, 0.90),
		P99:    percentileSorted(s, 0.99),
		StdDev: math.Sqrt(variance),
		Sum:    sum,
	}
}

// percentileSorted returns the p-quantile (0..1) of an ascending slice
// using nearest-rank interpolation.
func percentileSorted(s []float64, p float64) float64 {
	if len(s) == 0 {
		return 0
	}
	pos := p * float64(len(s)-1)
	lo := int(pos)
	hi := lo + 1
	if hi >= len(s) {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo]*(1-frac) + s[hi]*frac
}

// FairnessFactor computes Dice's fairness factor over per-thread operation
// counts: the sum of the highest half of the counts divided by the total.
// It ranges from 0.5 (perfectly fair) to 1.0 (completely unfair). With an
// odd number of threads the larger half is used, matching the metric's
// upper-half definition. Zero total yields 0.5 (no work happened, nothing
// was unfair).
func FairnessFactor(opsPerThread []int64) float64 {
	if len(opsPerThread) == 0 {
		return 0.5
	}
	s := append([]int64(nil), opsPerThread...)
	sort.Slice(s, func(i, j int) bool { return s[i] > s[j] })
	var total int64
	for _, v := range s {
		total += v
	}
	if total == 0 {
		return 0.5
	}
	half := (len(s) + 1) / 2
	var top int64
	for _, v := range s[:half] {
		top += v
	}
	return float64(top) / float64(total)
}
