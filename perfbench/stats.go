package main

import (
	"math"
	"sort"
)

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of sorted
// values, and how many samples lie strictly above that rank — the tail that
// supports the estimate. A percentile is only worth reporting when its tail
// holds at least minTail samples.
func percentile(sorted []float64, p float64) (value float64, tail int) {
	n := len(sorted)
	if n == 0 {
		return 0, 0
	}
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return sorted[rank-1], n - rank
}

// minTail is the fewest samples beyond a percentile for it to count as
// measured: the p99 of fewer than 1000 samples is reported with its small
// tail flagged, not silently.
const minTail = 10

// sortedCopy returns xs sorted ascending without touching the input.
func sortedCopy(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of unsorted values (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
