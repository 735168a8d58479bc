package main

import (
	"math"
	"slices"
)

// quantile returns the nearest-rank q-quantile of samples: the
// smallest sample with at least a q share of the set at or below it.
// It is an exact order statistic, never an interpolation or a bucket
// bound, so a percentile moves only when the samples do. samples is
// sorted in place; an empty set yields 0.
func quantile(samples []uint32, q float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	rank := int(math.Ceil(q * float64(len(samples))))
	rank = min(max(rank, 1), len(samples))
	return float64(samples[rank-1])
}

// median returns the median of xs (the mean of the middle two for an
// even count), leaving xs unchanged; an empty set yields 0.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// share returns num/den, or 0 when den is 0.
func share(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
