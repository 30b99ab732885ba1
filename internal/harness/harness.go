package harness

import (
	"fmt"
	"time"

	"energybench/internal/bench"
	"energybench/internal/meter"
	"energybench/internal/perf"
	"energybench/internal/stats"
)

// Pair is a co-run configuration: two heterogeneous specs sharing the
// machine. The harness runs an equal number of threads of each, interleaved
// in placement order so compact puts A/B on SMT siblings of the same core
// and scatter puts them on separate physical cores.
type Pair struct {
	A, B bench.Spec
}

// Space is the exploration space to sweep: the cartesian product of
// (Specs ∪ Pairs), ThreadCounts, and Placements. For a Pair, a thread count
// of n means n threads of each spec (2n total).
//
// Each configuration runs Warmup discarded repetitions, then at least
// MinReps measured ones, stopping early once the running CV of the energy
// samples falls to CVTarget (if positive), and never exceeding MaxReps.
// Reps is the fixed-budget shorthand: when MinReps/MaxReps are zero it
// stands in for both, preserving the original fixed-repetition behavior.
type Space struct {
	Specs        []bench.Spec
	Pairs        []Pair
	ThreadCounts []int
	Placements   []Placement
	Reps         int     // fixed repetitions; shorthand for MinReps = MaxReps = Reps
	MinReps      int     // minimum measured repetitions (0: fall back to Reps)
	MaxReps      int     // repetition hard cap (0: fall back to MinReps)
	CVTarget     float64 // energy-CV convergence target for early stop; 0 disables
	Warmup       int     // discarded warm-up repetitions per configuration
	IterScale    float64
	// MaxCV is the coefficient-of-variation threshold for outlier
	// rejection over the energy samples; 0 disables rejection.
	MaxCV float64
	// Counters, when non-nil, attaches per-thread hardware activity
	// metering to every trial: each worker thread counts the spec'd events
	// around the measured region and the scaled counts ride on the result
	// (internal/perf).
	Counters *perf.Spec
	// SampleInterval, when positive, polls the energy meter (and, with
	// Counters set, the worker perf sessions) on this period during every
	// measured repetition, attaching a time-resolved Series to each sample.
	// 0 disables in-trial sampling.
	SampleInterval time.Duration
}

// repBounds resolves the Reps/MinReps/MaxReps shorthand into the effective
// (min, max) repetition budget.
func (s Space) repBounds() (minReps, maxReps int) {
	minReps = s.MinReps
	if minReps == 0 {
		minReps = s.Reps
	}
	maxReps = s.MaxReps
	if maxReps == 0 {
		maxReps = minReps
	}
	return minReps, maxReps
}

// Validate checks the space is runnable.
func (s Space) Validate() error {
	if len(s.Specs) == 0 && len(s.Pairs) == 0 {
		return fmt.Errorf("harness: space has no specs or pairs")
	}
	for _, sp := range s.Specs {
		if err := sp.Validate(); err != nil {
			return err
		}
	}
	for _, p := range s.Pairs {
		if err := p.A.Validate(); err != nil {
			return err
		}
		if err := p.B.Validate(); err != nil {
			return err
		}
	}
	if len(s.ThreadCounts) == 0 {
		return fmt.Errorf("harness: space has no thread counts")
	}
	for _, t := range s.ThreadCounts {
		if t <= 0 {
			return fmt.Errorf("harness: non-positive thread count %d", t)
		}
	}
	if len(s.Placements) == 0 {
		return fmt.Errorf("harness: space has no placements")
	}
	minReps, maxReps := s.repBounds()
	if minReps <= 0 {
		return fmt.Errorf("harness: min reps must be positive, got %d", minReps)
	}
	if maxReps < minReps {
		return fmt.Errorf("harness: max reps %d below min reps %d", maxReps, minReps)
	}
	if s.CVTarget < 0 {
		return fmt.Errorf("harness: cv target must be non-negative, got %v", s.CVTarget)
	}
	if s.Warmup < 0 {
		return fmt.Errorf("harness: warmup must be non-negative, got %d", s.Warmup)
	}
	if s.Counters != nil {
		if _, err := s.Counters.Normalize(); err != nil {
			return fmt.Errorf("harness: %w", err)
		}
	}
	if s.SampleInterval < 0 {
		return fmt.Errorf("harness: sample interval must be non-negative, got %v", s.SampleInterval)
	}
	return nil
}

// Sample is one measured repetition of one configuration. For co-runs,
// TimeAS/TimeBS are the wall times of the slowest thread of each spec, so
// per-spec slowdowns can be computed against solo baselines; DomainJ breaks
// EnergyJ down per meter domain in Result.Domains order.
//
// Two windows are recorded per repetition: TimeS is the wall time of the
// slowest worker thread (the throughput clock), MeterTimeS is the meter's
// own before→after read window (the energy clock). PowerW divides EnergyJ by
// the meter window, since that is the span the energy delta was measured
// over; dividing by the shorter thread window would systematically inflate
// power by the meter's read latency.
type Sample struct {
	EnergyJ    float64   `json:"energy_j"`
	TimeS      float64   `json:"time_s"`
	MeterTimeS float64   `json:"meter_time_s,omitempty"`
	PowerW     float64   `json:"power_w"`
	TimeAS     float64   `json:"time_a_s,omitempty"`
	TimeBS     float64   `json:"time_b_s,omitempty"`
	DomainJ    []float64 `json:"domain_j,omitempty"`
	// Series is the repetition's time-resolved samples; set when the trial
	// ran with a positive SampleInterval. Store schema v3.
	Series *meter.Series `json:"series,omitempty"`
}

// Result aggregates all repetitions of one configuration: a solo
// (spec, threads, placement) run, or a co-run where ThreadsB threads of
// SpecB share the machine. EDP is the energy-delay product mean(E)·mean(T);
// EDDP (energy·delay²) weights delay harder, as the paper's Pareto analyses
// do.
type Result struct {
	Spec      string          `json:"spec"`
	Component bench.Component `json:"component"`
	Threads   int             `json:"threads"`
	Iters     int             `json:"iters"`
	// Co-run fields; zero for solo runs.
	SpecB      string          `json:"spec_b,omitempty"`
	ComponentB bench.Component `json:"component_b,omitempty"`
	ThreadsB   int             `json:"threads_b,omitempty"`
	ItersB     int             `json:"iters_b,omitempty"`
	Placement  Placement       `json:"placement"`
	Meter      string          `json:"meter"`
	Domains    []string        `json:"domains,omitempty"`
	// Converged is set when adaptive repetitions stopped early because the
	// energy CV reached the trial's target before the rep cap.
	Converged bool          `json:"converged,omitempty"`
	Samples   []Sample      `json:"samples"`
	EnergyJ   stats.Summary `json:"energy_j_summary"`
	TimeS     stats.Summary `json:"time_s_summary"`
	PowerW    stats.Summary `json:"power_w_summary"`
	// TimeA/TimeB summarize per-spec wall times; only set for co-runs.
	TimeA *stats.Summary `json:"time_a_s_summary,omitempty"`
	TimeB *stats.Summary `json:"time_b_s_summary,omitempty"`
	EDP   float64        `json:"edp_js"`
	EDDP  float64        `json:"eddp_js2"`
	// Counters is the measured activity vector (scaled hardware event
	// counts, aggregated over measured repetitions); set when the trial
	// carried a counter spec. Store schema v2.
	Counters *Counters `json:"counters,omitempty"`
	// SampleInterval is the in-trial sampling period the trial ran with;
	// 0 when sampling was off. The per-rep series live on the samples.
	// Store schema v3.
	SampleInterval time.Duration `json:"sample_interval_ns,omitempty"`
	// Workload names the external workload this result measured; empty for
	// kernel results (keys and stores are then byte-identical to earlier
	// builds). WorkloadComponents echoes the workload's declared per-thread
	// activity mix, so model validation can rebuild the nominal activity
	// vector from the store alone. Store schema v5.
	Workload           string                      `json:"workload,omitempty"`
	WorkloadComponents map[bench.Component]float64 `json:"workload_components,omitempty"`
	// Host and Microarch identify the machine that executed the trial.
	// They are empty for single-host runs (keys and stores are then
	// byte-identical to earlier builds) and stamped by the fleet
	// coordinator when merging results from remote agents, making the
	// store key three-dimensional: (host, microarch, configuration).
	// Store schema v4.
	Host      string `json:"host,omitempty"`
	Microarch string `json:"microarch,omitempty"`
}

// IsCoRun reports whether the result measured two specs sharing the machine.
func (r Result) IsCoRun() bool { return r.SpecB != "" }

// Name labels the result for logs and errors: "specA" or "specA+specB".
func (r Result) Name() string {
	if r.IsCoRun() {
		return r.Spec + "+" + r.SpecB
	}
	return r.Spec
}

// Activity is the result's nominal activity vector, the design row of the
// paper's power model P = P_static + Σ_c a_c·activity_c: active threads per
// component for a kernel result (both sides of a co-run, summed when they
// stress the same component), and an external workload's declared
// per-thread mix scaled by its thread count. It is the one definition of
// that row: the planted mock is loaded with it, the model fits and
// validates on it, and the adaptive planner scores candidates by it
// (Trial.Activity).
func (r Result) Activity() map[bench.Component]float64 {
	act := map[bench.Component]float64{}
	if r.Workload != "" {
		for c, weight := range r.WorkloadComponents {
			act[c] += weight * float64(r.Threads)
		}
		return act
	}
	act[r.Component] = float64(r.Threads)
	if r.IsCoRun() {
		act[r.ComponentB] += float64(r.ThreadsB)
	}
	return act
}

// Runner is an alias of Scheduler, kept for callers that still spell it.
//
// Deprecated: use Scheduler, the only dispatcher.
type Runner = Scheduler

// logTrialResult emits the Scheduler's one-line progress record for a
// finished trial.
func logTrialResult(log func(format string, args ...any), finished, total int, res Result) {
	conv := ""
	if res.Converged {
		conv = " (converged)"
	}
	log("[%d/%d] %-20s threads=%d placement=%-7s reps=%d%s E=%.3fJ t=%.4fs P=%.2fW EDP=%.4f",
		finished, total, res.Name(), res.Threads, res.Placement, len(res.Samples), conv,
		res.EnergyJ.Mean, res.TimeS.Mean, res.PowerW.Mean, res.EDP)
}
