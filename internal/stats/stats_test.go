package stats

import (
	"math"
	"slices"
	"testing"
)

func almostEq(a, b float64) bool {
	return math.Abs(a-b) < 1e-9
}

func TestMean(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{5}, 5},
		{"uniform", []float64{2, 2, 2}, 2},
		{"mixed", []float64{1, 2, 3, 4}, 2.5},
		{"negative", []float64{-1, 1}, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Mean(tc.in); !almostEq(got, tc.want) {
				t.Errorf("Mean(%v) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestMedian(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{7}, 7},
		{"odd", []float64{3, 1, 2}, 2},
		{"even", []float64{4, 1, 3, 2}, 2.5},
		{"unsorted-dups", []float64{5, 1, 5, 1}, 3},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Median(tc.in); !almostEq(got, tc.want) {
				t.Errorf("Median(%v) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestMedianDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Median(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Errorf("Median mutated its input: %v", in)
	}
}

func TestStdDev(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"empty", nil, 0},
		{"single", []float64{3}, 0},
		{"uniform", []float64{4, 4, 4}, 0},
		{"known", []float64{2, 4, 4, 4, 5, 5, 7, 9}, 2.138089935299395}, // sample stddev
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := StdDev(tc.in); !almostEq(got, tc.want) {
				t.Errorf("StdDev(%v) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestCV(t *testing.T) {
	tests := []struct {
		name string
		in   []float64
		want float64
	}{
		{"zero-mean", []float64{-1, 1}, 0},
		{"uniform", []float64{5, 5}, 0},
		{"known", []float64{2, 4, 4, 4, 5, 5, 7, 9}, 2.138089935299395 / 5},
		// Negated samples must report the same (positive) dispersion; a
		// signed CV would sit below any positive convergence target.
		{"negative-mean", []float64{-2, -4, -4, -4, -5, -5, -7, -9}, 2.138089935299395 / 5},
		{"negative-uniform", []float64{-5, -5}, 0},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := CV(tc.in); !almostEq(got, tc.want) {
				t.Errorf("CV(%v) = %v, want %v", tc.in, got, tc.want)
			}
		})
	}
}

func TestSummarizeNegativeMeanCV(t *testing.T) {
	s := Summarize([]float64{-2, -4, -4, -4, -5, -5, -7, -9})
	if want := 2.138089935299395 / 5; !almostEq(s.CV, want) {
		t.Errorf("Summarize CV = %v, want %v", s.CV, want)
	}
	if z := Summarize([]float64{-1, 1}); z.CV != 0 {
		t.Errorf("Summarize zero-mean CV = %v, want 0", z.CV)
	}
}

func TestRejectOutliers(t *testing.T) {
	tests := []struct {
		name     string
		in       []float64
		maxCV    float64
		wantKept []int
	}{
		{"no-rejection-needed", []float64{10, 10.1, 9.9}, 0.05, []int{0, 1, 2}},
		{"single-spike-removed", []float64{10, 10.2, 9.8, 100}, 0.05, []int{0, 1, 2}},
		// Still over maxCV at two samples, but two is the floor.
		{"min-keep-floor", []float64{1, 100, 10000}, 0.001, []int{0, 1}},
		{"preserves-order", []float64{9.9, 50, 10.1, 10}, 0.05, []int{0, 2, 3}},
		{"non-positive-max-cv-keeps-all", []float64{1, 100, 10000}, 0, []int{0, 1, 2}},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if kept := RejectOutliers(tc.in, tc.maxCV); !slices.Equal(kept, tc.wantKept) {
				t.Errorf("kept = %v, want %v", kept, tc.wantKept)
			}
		})
	}
}

// TestConverged pins the stopping rule's floor of two samples, its minN and
// its off switch.
func TestConverged(t *testing.T) {
	tests := []struct {
		name   string
		xs     []float64
		target float64
		minN   int
		want   bool
	}{
		// A single sample has CV 0 but must never count as converged.
		{"single-sample", []float64{100}, 0.1, 1, false},
		{"two-identical", []float64{100, 100}, 0.1, 2, true},
		{"below-min-n", []float64{100, 100}, 0.1, 3, false},
		// A non-positive target disables convergence even for identical samples.
		{"target-zero-disables", []float64{100, 100}, 0, 2, false},
		{"huge-cv", []float64{100, 100, 100000}, 0.1, 2, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := Converged(tc.xs, tc.target, tc.minN); got != tc.want {
				t.Errorf("Converged(%v, %v, %d) = %v, want %v", tc.xs, tc.target, tc.minN, got, tc.want)
			}
		})
	}
}

// TestConvergedNegativeMean: noisy negative samples must not satisfy the
// stopping rule just because the mean's sign flipped the CV, and tight ones
// still do.
func TestConvergedNegativeMean(t *testing.T) {
	if Converged([]float64{-100, -1, -50}, 0.05, 2) {
		t.Error("noisy negative-mean samples reported as converged")
	}
	if !Converged([]float64{-100, -101}, 0.05, 2) {
		t.Error("tight negative-mean samples did not converge")
	}
}

func TestSummarize(t *testing.T) {
	s := Summarize([]float64{1, 2, 3, 4})
	if s.N != 4 {
		t.Errorf("N = %d, want 4", s.N)
	}
	if !almostEq(s.Mean, 2.5) || !almostEq(s.Median, 2.5) {
		t.Errorf("Mean/Median = %v/%v, want 2.5/2.5", s.Mean, s.Median)
	}
	if !almostEq(s.Min, 1) || !almostEq(s.Max, 4) {
		t.Errorf("Min/Max = %v/%v, want 1/4", s.Min, s.Max)
	}
	if !almostEq(s.CV, s.StdDev/s.Mean) {
		t.Errorf("CV = %v, want StdDev/Mean = %v", s.CV, s.StdDev/s.Mean)
	}
	empty := Summarize(nil)
	if empty.N != 0 || empty.Mean != 0 || empty.Min != 0 || empty.Max != 0 {
		t.Errorf("Summarize(nil) = %+v, want zero value", empty)
	}
}
