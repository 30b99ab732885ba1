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
// mean jump are material — and throttling is a sliding-window OLS slope test.

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
// fitted power slope stays materially negative.
type Throttle struct {
	StartS     float64 `json:"start_s"`
	EndS       float64 `json:"end_s"`
	DropW      float64 `json:"drop_w"`        // power lost over the episode
	SlopeWPerS float64 `json:"slope_w_per_s"` // steepest fitted slope seen
}

// PhaseConfig tunes segmentation. The zero value selects the defaults.
type PhaseConfig struct {
	// MinSegment is the minimum points per phase; splits that would create a
	// shorter segment are rejected. Default 3 — below that a per-phase
	// standard error is meaningless.
	MinSegment int
	// MinJumpFrac is the minimum step between adjacent phase means, as a
	// fraction of the series' overall mean power, for a split to count as a
	// real regime change rather than noise. Default 0.05 (5%).
	MinJumpFrac float64
	// MaxPhases caps recursion; default 8.
	MaxPhases int
}

func (c PhaseConfig) withDefaults() PhaseConfig {
	if c.MinSegment <= 0 {
		c.MinSegment = 3
	}
	if c.MinJumpFrac <= 0 {
		c.MinJumpFrac = 0.05
	}
	if c.MaxPhases <= 0 {
		c.MaxPhases = 8
	}
	return c
}

// SegmentPhases partitions a power series into phases by recursive binary
// change-point detection. times and powers are parallel (point offsets in
// seconds and power in watts); short series collapse to a single phase.
func SegmentPhases(times, powers []float64, cfg PhaseConfig) []Phase {
	cfg = cfg.withDefaults()
	n := len(powers)
	if n == 0 || len(times) != n {
		return nil
	}
	refMean := stats.Mean(powers)
	// A zero-mean series has no scale to judge jumps against; report it as a
	// single phase rather than chasing noise.
	minJump := cfg.MinJumpFrac * math.Abs(refMean)
	var bounds []int // split indices, each the start of a new phase
	var split func(lo, hi int, budget int)
	split = func(lo, hi, budget int) {
		if budget <= 0 || hi-lo < 2*cfg.MinSegment {
			return
		}
		cut, gain := bestSplit(powers[lo:hi], cfg.MinSegment)
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
	split(0, n, cfg.MaxPhases-1)
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

// ThrottleConfig tunes throttle detection. The zero value selects defaults.
type ThrottleConfig struct {
	// Window is the sliding-window width in points for the slope fit.
	// Default 5.
	Window int
	// MinSlopeFrac is how steep (negative) the fitted slope must be, in
	// fractions of the series mean power per second, to flag a window.
	// Default 0.10 — power falling ≥10% of its mean per second.
	MinSlopeFrac float64
	// MinRun is how many consecutive flagged windows make an episode.
	// Default 2, so one noisy window never reports a throttle.
	MinRun int
}

func (c ThrottleConfig) withDefaults() ThrottleConfig {
	if c.Window <= 0 {
		c.Window = 5
	}
	if c.MinSlopeFrac <= 0 {
		c.MinSlopeFrac = 0.10
	}
	if c.MinRun <= 0 {
		c.MinRun = 2
	}
	return c
}

// DetectThrottles scans a power series for sustained declines: windows whose
// OLS-fitted slope is steeper than -MinSlopeFrac × mean power per second, in
// runs of at least MinRun consecutive windows. Adjacent flagged windows merge
// into one episode spanning first window start to last window end.
func DetectThrottles(times, powers []float64, cfg ThrottleConfig) []Throttle {
	cfg = cfg.withDefaults()
	n := len(powers)
	if n < cfg.Window || len(times) != n {
		return nil
	}
	meanW := math.Abs(stats.Mean(powers))
	if meanW == 0 {
		return nil
	}
	threshold := -cfg.MinSlopeFrac * meanW
	var episodes []Throttle
	run, runStart := 0, -1
	var steepest float64
	flush := func(endWin int) {
		if run < cfg.MinRun {
			run, runStart = 0, -1
			return
		}
		first, last := runStart, endWin
		episodes = append(episodes, Throttle{
			StartS:     times[first],
			EndS:       times[last+cfg.Window-1],
			DropW:      powers[first] - powers[last+cfg.Window-1],
			SlopeWPerS: steepest,
		})
		run, runStart = 0, -1
	}
	for w := 0; w+cfg.Window <= n; w++ {
		slope := olsSlope(times[w:w+cfg.Window], powers[w:w+cfg.Window])
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
	flush(n - cfg.Window)
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
