// Package stats provides the statistics the evaluation harness reports:
// means and percentiles of latency samples, Dice's fairness factor, and
// step time series (e.g. the runnable-thread timeline of Figure 5a).
package stats

import (
	"cmp"
	"slices"
	"sort"
)

// Percentile returns the p-quantile (0..1) of samples, interpolated
// linearly between the two nearest ranks of a sorted copy. It does not
// modify samples; an empty input yields 0.
func Percentile(samples []float64, p float64) float64 {
	return PercentileInPlace(slices.Clone(samples), p)
}

// PercentileInPlace is Percentile without the copy: it reorders samples
// and selects only the two order statistics the interpolation reads, in
// expected linear time, instead of sorting.
func PercentileInPlace(samples []float64, p float64) float64 {
	n := len(samples)
	if n == 0 {
		return 0
	}
	pos := p * float64(n-1)
	lo := int(pos)
	if lo+1 >= n {
		return selectRank(samples, n-1)
	}
	a := selectRank(samples, lo)
	// Everything after rank lo is no smaller than a, so the next rank is
	// the least of the rest.
	b := samples[lo+1]
	for _, v := range samples[lo+2:] {
		if cmp.Less(v, b) {
			b = v
		}
	}
	frac := pos - float64(lo)
	return a*(1-frac) + b*frac
}

// selectRank reorders s so that s[k] holds the value a sort would put
// there (sort.Float64s order: NaNs first), nothing before it greater and
// nothing after it smaller, and returns s[k]. It is quickselect with a
// median-of-three pivot and a three-way partition, so runs of equal
// values cost one pass.
func selectRank(s []float64, k int) float64 {
	lo, hi := 0, len(s)-1
	for lo < hi {
		// The pivot is the median of the first, middle and last values.
		a, pivot, c := s[lo], s[lo+(hi-lo)/2], s[hi]
		if cmp.Less(pivot, a) {
			a, pivot = pivot, a
		}
		if cmp.Less(c, pivot) {
			pivot = c
			if cmp.Less(pivot, a) {
				pivot = a
			}
		}
		// s[lo:lt] < pivot, s[lt:i] == pivot, s[gt+1:hi+1] > pivot.
		lt, i, gt := lo, lo, hi
		for i <= gt {
			switch {
			case cmp.Less(s[i], pivot):
				s[lt], s[i] = s[i], s[lt]
				lt++
				i++
			case cmp.Less(pivot, s[i]):
				s[i], s[gt] = s[gt], s[i]
				gt--
			default:
				i++
			}
		}
		switch {
		case k < lt:
			hi = lt - 1
		case k > gt:
			lo = gt + 1
		default:
			return s[k]
		}
	}
	return s[k]
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
