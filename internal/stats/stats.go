package stats

import (
	"math"
	"slices"
	"sort"
)

// Summary describes a sample set. In a result it covers the repetitions
// outlier rejection kept, and Rejected counts the ones it dropped.
type Summary struct {
	N        int     `json:"n"`
	Rejected int     `json:"rejected,omitempty"`
	Mean     float64 `json:"mean"`
	Median   float64 `json:"median"`
	StdDev   float64 `json:"stddev"`
	CV       float64 `json:"cv"` // StdDev / |Mean|, 0 if Mean is 0
	Min      float64 `json:"min"`
	Max      float64 `json:"max"`
}

// Mean returns the arithmetic mean, or 0 for an empty slice.
func Mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// Median returns the median, or 0 for an empty slice.
func Median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// StdDev returns the sample standard deviation (n-1 denominator), or 0 for
// fewer than two samples.
func StdDev(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	m := Mean(xs)
	var ss float64
	for _, x := range xs {
		d := x - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(n-1))
}

// CV returns the coefficient of variation (StdDev/|Mean|), or 0 when the
// mean is 0. The magnitude of the mean is used so that sample sets with a
// negative mean still report positive dispersion — a signed CV would compare
// as "below target" against any positive threshold and defeat CV-driven
// stopping rules.
func CV(xs []float64) float64 {
	m := Mean(xs)
	if m == 0 {
		return 0
	}
	return StdDev(xs) / math.Abs(m)
}

// Converged reports whether xs satisfy the repeat-until-stable stopping
// rule: at least minN samples (never fewer than two, since the CV of a
// single sample is trivially zero) with CV at or below cvTarget. A
// non-positive cvTarget disables the rule, so fixed-rep sweeps never stop
// early.
func Converged(xs []float64, cvTarget float64, minN int) bool {
	return cvTarget > 0 && len(xs) >= max(minN, 2) && CV(xs) <= cvTarget
}

// RejectOutliers iteratively drops the sample farthest from the mean while
// the kept samples' CV exceeds maxCV, keeping at least two, and returns the
// indices of the kept samples in ascending order. A non-positive maxCV keeps
// every sample. This discards repetitions perturbed by OS noise
// (interrupts, migrations) without assuming a distribution.
func RejectOutliers(xs []float64, maxCV float64) []int {
	kept := make([]int, len(xs))
	vals := make([]float64, len(xs))
	for i, x := range xs {
		kept[i], vals[i] = i, x
	}
	for maxCV > 0 && len(vals) > 2 && CV(vals) > maxCV {
		m := Mean(vals)
		worst, dist := 0, -1.0
		for i, x := range vals {
			if d := math.Abs(x - m); d > dist {
				worst, dist = i, d
			}
		}
		kept = slices.Delete(kept, worst, worst+1)
		vals = slices.Delete(vals, worst, worst+1)
	}
	return kept
}

// Summarize aggregates xs as given; Rejected stays zero.
func Summarize(xs []float64) Summary {
	s := Summary{N: len(xs), Mean: Mean(xs), Median: Median(xs), StdDev: StdDev(xs)}
	if s.Mean != 0 {
		s.CV = s.StdDev / math.Abs(s.Mean)
	}
	if len(xs) > 0 {
		s.Min, s.Max = xs[0], xs[0]
		for _, x := range xs[1:] {
			s.Min = math.Min(s.Min, x)
			s.Max = math.Max(s.Max, x)
		}
	}
	return s
}
