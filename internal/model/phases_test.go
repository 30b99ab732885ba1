package model

import (
	"math"
	"testing"
)

// seriesAt builds parallel (times, powers) slices on a fixed interval from a
// power function of the point index.
func seriesAt(n int, intervalS float64, powerAt func(i int) float64) (times, powers []float64) {
	times = make([]float64, n)
	powers = make([]float64, n)
	for i := 0; i < n; i++ {
		times[i] = float64(i+1) * intervalS
		powers[i] = powerAt(i)
	}
	return times, powers
}

// TestSegmentPhasesTwoPhase is the acceptance-criteria test: a planted
// two-regime series (42 W then 20 W, switching at point 10) must segment into
// exactly two phases with the boundary within one interval of the plant.
func TestSegmentPhasesTwoPhase(t *testing.T) {
	const interval = 0.01
	times, powers := seriesAt(20, interval, func(i int) float64 {
		if i < 10 {
			return 42
		}
		return 20
	})
	phases := SegmentPhases(times, powers)
	if len(phases) != 2 {
		t.Fatalf("segmented into %d phases, want 2: %+v", len(phases), phases)
	}
	// Planted boundary: last 42 W point at t = 10·interval, first 20 W point
	// at t = 11·interval.
	if diff := math.Abs(phases[0].EndS - 10*interval); diff > interval {
		t.Errorf("phase 0 ends at %v s, want within one interval of %v s", phases[0].EndS, 10*interval)
	}
	if diff := math.Abs(phases[1].StartS - 11*interval); diff > interval {
		t.Errorf("phase 1 starts at %v s, want within one interval of %v s", phases[1].StartS, 11*interval)
	}
	if math.Abs(phases[0].MeanW-42) > 1e-9 || math.Abs(phases[1].MeanW-20) > 1e-9 {
		t.Errorf("phase means = %v/%v W, want 42/20", phases[0].MeanW, phases[1].MeanW)
	}
	if phases[0].N+phases[1].N != 20 {
		t.Errorf("phases cover %d points, want all 20", phases[0].N+phases[1].N)
	}
	if phases[0].StdDevW != 0 || phases[0].SEMW != 0 {
		t.Errorf("noise-free phase has error bars: stddev=%v sem=%v", phases[0].StdDevW, phases[0].SEMW)
	}
}

// TestSegmentPhasesNoisyBoundary plants the same two regimes under ±0.5 W
// deterministic ripple; the boundary must still land within one interval.
func TestSegmentPhasesNoisyBoundary(t *testing.T) {
	const interval = 0.01
	ripple := []float64{0.5, -0.3, 0.1, -0.5, 0.4, -0.1, 0.3, -0.4, 0.2, -0.2}
	times, powers := seriesAt(30, interval, func(i int) float64 {
		base := 42.0
		if i >= 15 {
			base = 20
		}
		return base + ripple[i%len(ripple)]
	})
	phases := SegmentPhases(times, powers)
	if len(phases) != 2 {
		t.Fatalf("segmented into %d phases, want 2: %+v", len(phases), phases)
	}
	if diff := math.Abs(phases[1].StartS - 16*interval); diff > interval {
		t.Errorf("boundary at %v s, want within one interval of %v s", phases[1].StartS, 16*interval)
	}
	if phases[0].SEMW <= 0 || phases[0].SEMW > 0.5 {
		t.Errorf("phase 0 SEM = %v, want small positive error bar", phases[0].SEMW)
	}
}

// TestSegmentPhasesFlatSeriesSinglePhase: a constant series must never be
// split, and tiny ripples below materialFrac must not create phantom phases.
func TestSegmentPhasesFlatSeriesSinglePhase(t *testing.T) {
	times, powers := seriesAt(20, 0.01, func(i int) float64 { return 35 })
	if phases := SegmentPhases(times, powers); len(phases) != 1 {
		t.Errorf("constant series segmented into %d phases, want 1", len(phases))
	}
	// 1% ripple is under the 5% default jump threshold.
	times, powers = seriesAt(20, 0.01, func(i int) float64 {
		if i%2 == 0 {
			return 35.2
		}
		return 34.8
	})
	if phases := SegmentPhases(times, powers); len(phases) != 1 {
		t.Errorf("sub-threshold ripple segmented into %d phases, want 1", len(phases))
	}
}

func TestSegmentPhasesThreePhase(t *testing.T) {
	const interval = 0.01
	times, powers := seriesAt(30, interval, func(i int) float64 {
		switch {
		case i < 10:
			return 60
		case i < 20:
			return 40
		default:
			return 25
		}
	})
	phases := SegmentPhases(times, powers)
	if len(phases) != 3 {
		t.Fatalf("segmented into %d phases, want 3: %+v", len(phases), phases)
	}
	for i, want := range []float64{60, 40, 25} {
		if math.Abs(phases[i].MeanW-want) > 1e-9 {
			t.Errorf("phase %d mean = %v, want %v", i, phases[i].MeanW, want)
		}
	}
}

// TestSegmentPhasesDegenerate: empty, single-point, and too-short series all
// stay in one piece (or none) without panicking.
func TestSegmentPhasesDegenerate(t *testing.T) {
	if phases := SegmentPhases(nil, nil); phases != nil {
		t.Errorf("empty series produced phases: %+v", phases)
	}
	times, powers := seriesAt(1, 0.01, func(i int) float64 { return 10 })
	phases := SegmentPhases(times, powers)
	if len(phases) != 1 || phases[0].N != 1 {
		t.Errorf("single-point series = %+v, want one single-point phase", phases)
	}
	// 5 points cannot hold two minSegment=3 phases.
	times, powers = seriesAt(5, 0.01, func(i int) float64 {
		if i < 2 {
			return 100
		}
		return 10
	})
	if phases := SegmentPhases(times, powers); len(phases) != 1 {
		t.Errorf("5-point series segmented into %d phases, want 1 (minSegment=3)", len(phases))
	}
	// Zero-mean series: no scale for the jump test, must stay single-phase.
	times, powers = seriesAt(20, 0.01, func(i int) float64 { return 0 })
	if phases := SegmentPhases(times, powers); len(phases) != 1 {
		t.Errorf("zero series segmented into %d phases, want 1", len(phases))
	}
}

// TestDetectThrottlesRamp plants a sustained decline — 50 W flat, then a
// steady 2 W-per-point drop — and wants exactly one episode covering the ramp.
func TestDetectThrottlesRamp(t *testing.T) {
	const interval = 0.01
	times, powers := seriesAt(30, interval, func(i int) float64 {
		if i < 15 {
			return 50
		}
		return 50 - 2*float64(i-14)
	})
	episodes := DetectThrottles(times, powers)
	if len(episodes) != 1 {
		t.Fatalf("detected %d throttle episodes, want 1: %+v", len(episodes), episodes)
	}
	ep := episodes[0]
	if ep.SlopeWPerS >= 0 {
		t.Errorf("slope = %v W/s, want negative", ep.SlopeWPerS)
	}
	if ep.DropW <= 0 {
		t.Errorf("drop = %v W, want positive", ep.DropW)
	}
	// The ramp starts at point 15 (t=0.16); windows overlapping it flag, so
	// the episode must start at or before the ramp and end at the series end.
	if ep.StartS > 16*interval {
		t.Errorf("episode starts at %v s, after the ramp onset", ep.StartS)
	}
	if ep.EndS != times[len(times)-1] {
		t.Errorf("episode ends at %v s, want series end %v s", ep.EndS, times[len(times)-1])
	}
}

// TestDetectThrottlesFlatAndRising: flat and increasing power must never be
// reported as throttling.
func TestDetectThrottlesFlatAndRising(t *testing.T) {
	times, powers := seriesAt(30, 0.01, func(i int) float64 { return 40 })
	if eps := DetectThrottles(times, powers); len(eps) != 0 {
		t.Errorf("flat series flagged as throttling: %+v", eps)
	}
	times, powers = seriesAt(30, 0.01, func(i int) float64 { return 20 + float64(i) })
	if eps := DetectThrottles(times, powers); len(eps) != 0 {
		t.Errorf("rising series flagged as throttling: %+v", eps)
	}
}

// TestDetectThrottlesIgnoresSingleNoisyWindow: a one-point glitch in a flat
// series is noise, not an episode. Its leading flank puts it last and
// second-to-last in two consecutive windows, both steep (-400 and -200 W/s
// against a -3.9 W/s threshold), which is minRun; but power ends the run
// where it began, a drop of 0 W.
func TestDetectThrottlesIgnoresSingleNoisyWindow(t *testing.T) {
	times, powers := seriesAt(30, 0.01, func(i int) float64 {
		if i == 15 {
			return 20 // one-point glitch in a 40 W series
		}
		return 40
	})
	if eps := DetectThrottles(times, powers); len(eps) != 0 {
		t.Errorf("single glitch flagged as throttle: %+v", eps)
	}
}

func TestDetectThrottlesShortSeries(t *testing.T) {
	times, powers := seriesAt(3, 0.01, func(i int) float64 { return 40 - 10*float64(i) })
	if eps := DetectThrottles(times, powers); eps != nil {
		t.Errorf("series shorter than window produced episodes: %+v", eps)
	}
}

func TestOLSSlope(t *testing.T) {
	xs := []float64{0, 1, 2, 3}
	ys := []float64{10, 8, 6, 4}
	if got := olsSlope(xs, ys); math.Abs(got-(-2)) > 1e-12 {
		t.Errorf("slope = %v, want -2", got)
	}
	if got := olsSlope([]float64{1}, []float64{5}); got != 0 {
		t.Errorf("degenerate slope = %v, want 0", got)
	}
	if got := olsSlope([]float64{2, 2, 2}, []float64{1, 2, 3}); got != 0 {
		t.Errorf("zero-variance-x slope = %v, want 0", got)
	}
}
