package main

import (
	"math"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice.
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

// trimmedMean is the mean of xs without its lowest and highest tenth.
func trimmedMean(xs []float64) float64 {
	s := sortedCopy(xs)
	k := len(s) / 10
	s = s[k : len(s)-k]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// iqrShare is the distance between the first and third quartile of xs as a
// share of its median, with quartiles computed like Python's
// statistics.quantiles(xs, n=4) (the exclusive method).
func iqrShare(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	s := sortedCopy(xs)
	q := func(p float64) float64 {
		// Exclusive method: position p·(n+1), 1-based, clamped to the ends.
		pos := p * float64(len(s)+1)
		j := int(math.Floor(pos))
		switch {
		case j < 1:
			return s[0]
		case j >= len(s):
			return s[len(s)-1]
		}
		return s[j-1] + (pos-float64(j))*(s[j]-s[j-1])
	}
	m := median(s)
	if m == 0 {
		return 0
	}
	return (q(0.75) - q(0.25)) / m
}

// tailPercentiles are the candidate tail percentiles, highest first.
var tailPercentiles = []float64{99.9, 99, 95, 90, 75}

// tail returns the highest percentile of xs (nearest rank) that still has at
// least ten samples beyond it, with that percentile. With fewer than forty
// samples no percentile qualifies and the maximum is returned as the 100th.
func tail(xs []float64) (value, pct float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	s := sortedCopy(xs)
	n := len(s)
	for _, p := range tailPercentiles {
		k := int(math.Ceil(p / 100 * float64(n)))
		if k >= 1 && n-k >= 10 {
			return s[k-1], p
		}
	}
	return s[n-1], 100
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
