package harness

import (
	"time"

	"energybench/internal/bench"
	"energybench/internal/meter"
	"energybench/internal/stats"
)

// Sample is one measured repetition of one configuration. For co-runs,
// TimeAS/TimeBS are the wall times of the slowest thread of each spec,
// timed from the repetition's first thread start (so a thread that waited
// for a free CPU counts its wait), so per-spec slowdowns can be computed
// against solo baselines; DomainJ breaks EnergyJ down per meter domain in
// Result.Domains order.
//
// Two windows are recorded per repetition: TimeS is the wall time of the
// released region, until its slowest worker thread finishes (the
// throughput clock), MeterTimeS is the meter's own before→after read window
// (the energy clock). PowerW divides EnergyJ by
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
// SpecB share the machine. Samples holds every measured repetition; the
// summaries, EDP and EDDP cover the ones outlier rejection kept (Measure).
// EDP is the energy-delay product mean(E)·mean(T); EDDP (energy·delay²)
// weights delay harder, as the paper's Pareto analyses do.
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
	// counts, aggregated over the repetitions the summaries cover); set
	// when the trial carried a counter spec and was measured. Store
	// schema v2.
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
