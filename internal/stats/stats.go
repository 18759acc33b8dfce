// Package stats provides the statistics the evaluation harness reports:
// means and percentiles of latency samples, Dice's fairness factor, and
// step time series (e.g. the runnable-thread timeline of Figure 5a).
package stats

import "sort"

// Percentile returns the p-quantile (0..1) of samples, interpolated
// linearly between the two nearest ranks of a sorted copy. It does not
// modify samples; an empty input yields 0.
func Percentile(samples []float64, p float64) float64 {
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

// Mean returns the mean of samples by Welford's running update, taken
// over the samples in ascending order so the result does not depend on
// their order. It does not modify samples; an empty input yields 0.
func Mean(samples []float64) float64 {
	s := append([]float64(nil), samples...)
	sort.Float64s(s)
	var mean float64
	for i, v := range s {
		mean += (v - mean) / float64(i+1)
	}
	return mean
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
