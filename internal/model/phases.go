package model

import (
	"math"
	"sort"

	"energybench/internal/stats"
)

// Phase segmentation and throttle detection over time-resolved power series.
//
// A sampling series (schema v3) gives per-tick power inside one measured
// repetition. Two questions the scalar summaries cannot answer become
// answerable: does the kernel go through distinct power regimes (phases), and
// does power decay over the repetition (thermal or power-limit throttling,
// which silently biases the whole-rep mean)? Segmentation is recursive binary
// change-point detection on the power signal — split where the split most
// reduces the sum of squared errors, accept only splits whose SSE gain and
// mean jump are material — and throttling is a sliding-window OLS slope test
// whose episodes must also lose a material amount of power.

// Phase is one detected power regime: a contiguous run of series points with
// a stable mean. Error bars are per-phase, so a two-regime kernel reports two
// honest means instead of one misleading whole-rep mean.
type Phase struct {
	StartS  float64 `json:"start_s"` // offset of first point in the phase
	EndS    float64 `json:"end_s"`   // offset of last point in the phase
	N       int     `json:"n"`       // points in the phase
	MeanW   float64 `json:"mean_w"`
	StdDevW float64 `json:"stddev_w"`
	SEMW    float64 `json:"sem_w"` // standard error of the phase mean
}

// Throttle is one detected sustained power decline: a window run where the
// fitted power slope stays materially negative and across which power falls
// by a material amount.
type Throttle struct {
	StartS     float64 `json:"start_s"`
	EndS       float64 `json:"end_s"`
	DropW      float64 `json:"drop_w"`        // power lost over the episode
	SlopeWPerS float64 `json:"slope_w_per_s"` // steepest fitted slope seen
}

// The segmentation and throttle thresholds.
const (
	// minSegment is the fewest points a phase keeps: below three, a
	// per-phase standard error is meaningless.
	minSegment = 3
	// materialFrac is the smallest power change, as a fraction of the
	// series' mean power, that counts as real rather than noise. A split
	// must move the phase mean by this much, and a throttle must lose this
	// much power across its episode: a throttle is a sustained move to a
	// materially lower level, so it clears the same bar as a phase change.
	materialFrac = 0.05
	// maxPhases caps the recursion.
	maxPhases = 8
	// throttleWindow is the sliding-window width, in points, of the slope
	// fit.
	throttleWindow = 5
	// minSlopeFrac is how steep (negative) a window's fitted slope must be
	// to flag it, in fractions of the series' mean power per second: power
	// falling at least 10% of its mean per second.
	minSlopeFrac = 0.10
	// minRun is how many consecutive flagged windows make an episode.
	minRun = 2
)

// SegmentPhases partitions a power series into phases by recursive binary
// change-point detection. times and powers are parallel (point offsets in
// seconds and power in watts); short series collapse to a single phase.
func SegmentPhases(times, powers []float64) []Phase {
	n := len(powers)
	if n == 0 || len(times) != n {
		return nil
	}
	refMean := stats.Mean(powers)
	// A zero-mean series has no scale to judge jumps against; report it as a
	// single phase rather than chasing noise.
	minJump := materialFrac * math.Abs(refMean)
	var bounds []int // split indices, each the start of a new phase
	var split func(lo, hi int, budget int)
	split = func(lo, hi, budget int) {
		if budget <= 0 || hi-lo < 2*minSegment {
			return
		}
		cut, gain := bestSplit(powers[lo:hi], minSegment)
		if cut < 0 || gain <= 0 {
			return
		}
		cut += lo
		if minJump <= 0 || math.Abs(stats.Mean(powers[lo:cut])-stats.Mean(powers[cut:hi])) < minJump {
			return
		}
		bounds = append(bounds, cut)
		split(lo, cut, budget-1)
		split(cut, hi, budget-1)
	}
	split(0, n, maxPhases-1)
	sort.Ints(bounds)
	var phases []Phase
	lo := 0
	for _, b := range append(bounds, n) {
		seg := powers[lo:b]
		s := stats.Summarize(seg)
		phases = append(phases, Phase{
			StartS:  times[lo],
			EndS:    times[b-1],
			N:       len(seg),
			MeanW:   s.Mean,
			StdDevW: s.StdDev,
			SEMW:    s.StdDev / math.Sqrt(float64(len(seg))),
		})
		lo = b
	}
	return phases
}

// bestSplit finds the cut index (relative, in [minSeg, len-minSeg]) that
// maximally reduces the segment's SSE, via prefix sums so the scan is O(n).
// Returns (-1, 0) when no legal cut exists.
func bestSplit(xs []float64, minSeg int) (cut int, gain float64) {
	n := len(xs)
	if n < 2*minSeg {
		return -1, 0
	}
	prefix := make([]float64, n+1)
	prefixSq := make([]float64, n+1)
	for i, x := range xs {
		prefix[i+1] = prefix[i] + x
		prefixSq[i+1] = prefixSq[i] + x*x
	}
	sse := func(lo, hi int) float64 {
		n := float64(hi - lo)
		sum := prefix[hi] - prefix[lo]
		return (prefixSq[hi] - prefixSq[lo]) - sum*sum/n
	}
	total := sse(0, n)
	cut = -1
	for c := minSeg; c <= n-minSeg; c++ {
		if g := total - sse(0, c) - sse(c, n); g > gain {
			gain, cut = g, c
		}
	}
	return cut, gain
}

// DetectThrottles scans a power series for sustained declines: windows whose
// OLS-fitted slope is steeper than -minSlopeFrac × mean power per second, in
// runs of at least minRun consecutive windows. Adjacent flagged windows merge
// into one episode spanning first window start to last window end, and an
// episode counts only if power fell by at least materialFrac of the mean
// across it. A one-point dip (on RAPL, a tick whose counter did not advance)
// flags the windows on its leading flank, but power ends where it began, so
// it is no throttle.
func DetectThrottles(times, powers []float64) []Throttle {
	n := len(powers)
	if n < throttleWindow || len(times) != n {
		return nil
	}
	meanW := math.Abs(stats.Mean(powers))
	if meanW == 0 {
		return nil
	}
	threshold := -minSlopeFrac * meanW
	var episodes []Throttle
	run, runStart := 0, -1
	var steepest float64
	flush := func(endWin int) {
		if run >= minRun {
			first, last := runStart, endWin+throttleWindow-1
			if drop := powers[first] - powers[last]; drop >= materialFrac*meanW {
				episodes = append(episodes, Throttle{StartS: times[first], EndS: times[last], DropW: drop, SlopeWPerS: steepest})
			}
		}
		run, runStart = 0, -1
	}
	for w := 0; w+throttleWindow <= n; w++ {
		slope := olsSlope(times[w:w+throttleWindow], powers[w:w+throttleWindow])
		if slope < threshold {
			if run == 0 {
				runStart = w
				steepest = slope
			} else if slope < steepest {
				steepest = slope
			}
			run++
			continue
		}
		flush(w - 1)
	}
	flush(n - throttleWindow)
	return episodes
}

// olsSlope fits y = a + b·x by ordinary least squares and returns b.
func olsSlope(xs, ys []float64) float64 {
	n := float64(len(xs))
	if n < 2 {
		return 0
	}
	mx, my := stats.Mean(xs), stats.Mean(ys)
	var num, den float64
	for i := range xs {
		dx := xs[i] - mx
		num += dx * (ys[i] - my)
		den += dx * dx
	}
	if den == 0 {
		return 0
	}
	return num / den
}
