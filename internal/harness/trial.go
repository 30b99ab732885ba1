package harness

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"

	"energybench/internal/bench"
	"energybench/internal/perf"
)

// Trial is one planned configuration: a first-class, serializable unit of
// work carrying everything an Executor needs — the spec(s), thread count,
// placement, scaled iteration counts, and the repetition budget. A campaign
// (internal/campaign) expands its spaces and workloads into an ordered
// []Trial; executors run them one at a time; sinks consume the results. Keeping trials explicit is what makes sweeps
// resumable (skip trials whose key is already stored) and sizable up front
// (dry runs print the plan without executing it).
type Trial struct {
	// Seq is the trial's position in the full plan (0-based). It survives
	// resume filtering unchanged, so dry-run output and stored results
	// remain traceable back to the original plan; progress lines count
	// executed trials separately.
	Seq  int        `json:"seq"`
	Spec bench.Spec `json:"spec"`
	// SpecB, when non-nil, makes this a co-run trial: Threads threads of
	// Spec and Threads threads of SpecB share the machine.
	SpecB     *bench.Spec `json:"spec_b,omitempty"`
	Threads   int         `json:"threads"`
	Placement Placement   `json:"placement"`
	// Iters/ItersB are the per-repetition iteration counts after IterScale.
	Iters  int `json:"iters"`
	ItersB int `json:"iters_b,omitempty"`
	// Repetition budget: Warmup discarded reps, then at least MinReps
	// measured reps, stopping early once the energy CV falls to CVTarget
	// (if positive), and never exceeding MaxReps.
	Warmup   int     `json:"warmup"`
	MinReps  int     `json:"min_reps"`
	MaxReps  int     `json:"max_reps"`
	CVTarget float64 `json:"cv_target,omitempty"`
	// MaxCV is the outlier-rejection threshold: while the kept energies'
	// CV exceeds it, the repetition farthest from their mean is dropped
	// whole (at least two stay), and every summary and EDP/EDDP use the
	// kept repetitions. 0 disables rejection.
	MaxCV float64 `json:"max_cv,omitempty"`
	// CPUs, when set, is the explicit per-unit CPU assignment (one entry
	// per worker thread, co-run units interleaved A,B,A,B…), overriding
	// the placement policy's own topology walk. The parallel Scheduler
	// fills it in when allocating a trial onto the currently free cores,
	// and it travels to subprocess workers with the rest of the trial.
	CPUs []int `json:"cpus,omitempty"`
	// Counters, when non-nil, makes the executor meter hardware activity
	// around every repetition's measured region. The campaign stamps the
	// normalized spec (explicit backend + event list), so a serialized
	// trial reproduces the same counter configuration in a worker child.
	Counters *perf.Spec `json:"counters,omitempty"`
	// SampleInterval, when positive, makes the executor poll the energy
	// meter (and any counter sessions) on this period during each measured
	// repetition, recording a time-resolved series per sample. It serializes
	// with the trial, so subprocess workers sample identically.
	SampleInterval time.Duration `json:"sample_interval_ns,omitempty"`
	// Extern, when non-nil, makes this an external-workload trial: the
	// metered region is a launched child process instead of kernel worker
	// threads. Spec then carries only the workload's name (no kernel), and
	// the configuration key grows a "|w:workload" dimension. Only an
	// extern-aware executor (internal/extwork) can run such trials.
	Extern *ExternSpec `json:"extern,omitempty"`
}

// ValidateBudget is the one repetition-budget rule: at least one measured
// rep, a cap no lower than the minimum, a non-negative warm-up, and a
// finite, non-negative CV target and outlier threshold. Campaigns check
// every budget with it as they plan, and Measure refuses a trial failing it.
func (t Trial) ValidateBudget() error {
	switch {
	case t.MinReps <= 0:
		return fmt.Errorf("min reps must be positive, got %d", t.MinReps)
	case t.MaxReps < t.MinReps:
		return fmt.Errorf("max reps %d below min reps %d", t.MaxReps, t.MinReps)
	case !(t.CVTarget >= 0 && t.CVTarget <= math.MaxFloat64):
		return fmt.Errorf("cv target must be non-negative and finite, got %v", t.CVTarget)
	case !(t.MaxCV >= 0 && t.MaxCV <= math.MaxFloat64):
		return fmt.Errorf("max cv must be non-negative and finite, got %v", t.MaxCV)
	case t.Warmup < 0:
		return fmt.Errorf("warmup must be non-negative, got %d", t.Warmup)
	}
	return nil
}

// Name labels the trial for logs and errors: "specA" or "specA+specB",
// the Name of its result.
func (t Trial) Name() string { return t.result("").Name() }

// IsCoRun reports whether the trial pairs two specs.
func (t Trial) IsCoRun() bool { return t.SpecB != nil }

// Width is the number of worker threads the trial runs: a co-run runs
// Threads of each spec. The Scheduler leases this many CPUs and the fleet
// coordinator routes the trial only to agents with at least this many.
func (t Trial) Width() int {
	if t.IsCoRun() {
		return 2 * t.Threads
	}
	return t.Threads
}

// result is the one Trial→Result mapping: the identity of the result an
// executor produces for this trial under the named meter. Measure starts
// every result from it, and Key and Activity derive from it, so a trial's
// key and design row are by construction those of its result.
func (t Trial) result(meterName string) Result {
	r := Result{
		Spec:           t.Spec.Name,
		Component:      t.Spec.Component,
		Threads:        t.Threads,
		Iters:          t.Iters,
		Placement:      t.Placement,
		Meter:          meterName,
		SampleInterval: t.SampleInterval,
	}
	if t.SpecB != nil {
		r.SpecB, r.ComponentB = t.SpecB.Name, t.SpecB.Component
		r.ThreadsB, r.ItersB = t.Threads, t.ItersB
	}
	if t.Extern != nil {
		r.Workload, r.WorkloadComponents = t.Extern.Workload, t.Extern.Components
	}
	return r
}

// Key returns the trial's configuration key under the given meter backend:
// ResultKey of the Result an executor produces for this trial, so resumable
// sweeps can skip trials whose key the store already holds.
func (t Trial) Key(meterName string) string { return ResultKey(t.result(meterName)) }

// Activity is the trial's nominal activity vector, Result.Activity of the
// result it will produce: the design row a load-aware meter is handed and
// the adaptive planner scores before the trial runs.
func (t Trial) Activity() map[bench.Component]float64 { return t.result("").Activity() }

// ResultKey derives the configuration identity of a measured result: two
// results with the same key measured the same configuration. An external
// workload carries a "|w:workload" dimension right after the six base
// fields, so a workload and a kernel spec sharing a name stay two live
// records. A result stamped with a host (a fleet merge) then carries the
// host — and, when known, the microarchitecture — as trailing key
// dimensions, so the same configuration measured on two machines yields two
// live records instead of one clobbering the other under last-wins dedup.
// Workload-less, hostless results keep the exact historical six-field key,
// so single-host kernel stores are byte-identical to earlier builds.
func ResultKey(r Result) string {
	// Iteration counts are part of the identity because energy totals are
	// only comparable at equal work. Concatenation, not Sprintf: every
	// planned trial is keyed, for dedup and again for resume.
	key := r.Spec + "|" + r.SpecB + "|t" + strconv.Itoa(r.Threads) + "+" + strconv.Itoa(r.ThreadsB) +
		"|" + string(r.Placement) + "|" + r.Meter + "|i" + strconv.Itoa(r.Iters) + "+" + strconv.Itoa(r.ItersB)
	if r.Workload != "" {
		key += "|w:" + r.Workload
	}
	if r.Host != "" {
		key += "|h:" + r.Host
		if r.Microarch != "" {
			key += "|u:" + r.Microarch
		}
	}
	return key
}

// StripHostKey removes the host and microarch dimensions from a
// configuration key, leaving the six-field single-host form. It is how
// fleet consumers compare a merged multi-host store against single-host
// plans: a trial is done when *some* host has measured its stripped key.
// Keys without a host dimension pass through unchanged.
func StripHostKey(key string) string {
	if i := strings.Index(key, "|h:"); i >= 0 {
		return key[:i]
	}
	return key
}

// KeyFields are the configuration components encoded in a key, as
// recovered by ParseKey.
type KeyFields struct {
	Spec      string
	SpecB     string
	Threads   int
	ThreadsB  int
	Placement Placement
	Meter     string
	Iters     int
	ItersB    int
	// Workload is the optional external-workload dimension ("|w:workload");
	// empty for kernel keys.
	Workload string
	// Host and Microarch are the optional trailing fleet dimensions
	// ("|h:host|u:microarch"); empty for single-host keys.
	Host      string
	Microarch string
}

// ParseKey decodes a configuration key produced by Trial.Key/ResultKey
// back into its components, letting stores filter on spec, threads,
// placement, meter, and workload from their key index alone — without
// deserializing any result. Six-field keys are the historical single-host
// kernel form; optional trailing fields follow in strict order — "w:workload"
// (external workload), then "h:host", then "u:microarch" (fleet dimensions,
// a microarch only ever after a host). ok is false for keys in an unknown
// format (e.g. written by a different build); callers using keys as a query
// pre-filter must then fall back to reading the record itself.
func ParseKey(key string) (KeyFields, bool) {
	parts := strings.Split(key, "|")
	if len(parts) < 6 || len(parts) > 9 {
		return KeyFields{}, false
	}
	kf := KeyFields{
		Spec:      parts[0],
		SpecB:     parts[1],
		Placement: Placement(parts[3]),
		Meter:     parts[4],
	}
	var ok bool
	if kf.Threads, kf.ThreadsB, ok = parseKeyPair(parts[2], 't'); !ok {
		return KeyFields{}, false
	}
	if kf.Iters, kf.ItersB, ok = parseKeyPair(parts[5], 'i'); !ok {
		return KeyFields{}, false
	}
	// Trailing optional dimensions, each at most once, in w: → h: → u:
	// order; u: requires a preceding h:.
	rest := parts[6:]
	if len(rest) > 0 {
		if w, ok := strings.CutPrefix(rest[0], "w:"); ok {
			if w == "" {
				return KeyFields{}, false
			}
			kf.Workload = w
			rest = rest[1:]
		}
	}
	if len(rest) > 0 {
		host, ok := strings.CutPrefix(rest[0], "h:")
		if !ok || host == "" {
			return KeyFields{}, false
		}
		kf.Host = host
		rest = rest[1:]
	}
	if len(rest) > 0 {
		uarch, ok := strings.CutPrefix(rest[0], "u:")
		if !ok || uarch == "" {
			return KeyFields{}, false
		}
		kf.Microarch = uarch
		rest = rest[1:]
	}
	if len(rest) > 0 {
		return KeyFields{}, false
	}
	return kf, true
}

// parseKeyPair strictly decodes a "<prefix>N+M" key component, rejecting
// any trailing garbage so a foreign key can never silently parse wrong.
func parseKeyPair(s string, prefix byte) (a, b int, ok bool) {
	if len(s) == 0 || s[0] != prefix {
		return 0, 0, false
	}
	aStr, bStr, found := strings.Cut(s[1:], "+")
	if !found {
		return 0, 0, false
	}
	var err error
	if a, err = strconv.Atoi(aStr); err != nil {
		return 0, 0, false
	}
	if b, err = strconv.Atoi(bStr); err != nil {
		return 0, 0, false
	}
	return a, b, true
}

// FilterTrials drops every trial for which skip returns true, preserving
// order and original Seq numbers, and reports how many were dropped. Used by
// resumable sweeps to skip configurations the store already holds.
func FilterTrials(trials []Trial, skip func(Trial) bool) (kept []Trial, skipped int) {
	for _, t := range trials {
		if skip(t) {
			skipped++
			continue
		}
		kept = append(kept, t)
	}
	return kept, skipped
}
