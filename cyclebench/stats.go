package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported tail
// percentile for it to mean anything.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count), or NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mean returns the arithmetic mean of xs, or NaN for no samples.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tail returns the q-th quantile of xs (0.5 < q < 1) if at least
// minBeyond samples lie above it. Otherwise it returns the highest
// quantile that has minBeyond samples above it, and when not even the
// median has, the median. used is the quantile actually reported.
//
// The p-quantile is the nearest-rank value s[ceil(p·n)−1] of the
// sorted samples, which leaves n−ceil(p·n) samples above it.
func tail(xs []float64, q float64) (v, used float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), q
	}
	s := sortedCopy(xs)
	rank := int(math.Ceil(q * float64(n)))
	if n-rank < minBeyond {
		rank = n - minBeyond
	}
	if rank < (n+1)/2 {
		return median(xs), 0.5
	}
	return s[rank-1], float64(rank) / float64(n)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
