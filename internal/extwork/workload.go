package extwork

import (
	"fmt"
	"math"
	"time"

	"energybench/internal/bench"
	"energybench/internal/harness"
)

// Workload is one campaign-declared external workload: how to build and
// launch it, which axes to sweep, and its nominal activity mix. The JSON
// shape is what campaign files' workloads: entries parse into; pointer
// fields distinguish "absent" from explicit zeros, mirroring SpaceConfig.
type Workload struct {
	// Name keys the workload: it becomes the "|w:" store dimension and the
	// label validation reports use. Must be unique within a campaign and
	// free of '|' and '/'.
	Name string `json:"name"`
	// Build, when set, is a command run once per workload before its first
	// trial (e.g. ["go", "build", "-o", ".scratch/app", "./cmd/app"]).
	Build []string `json:"build,omitempty"`
	// Exec is the argv to launch as the metered region. "${THREADS}" and
	// "${CPUS}" expand per trial.
	Exec []string `json:"exec"`
	// Env adds environment variables with the same expansion, so e.g.
	// OMP_NUM_THREADS joins the threads axis.
	Env map[string]string `json:"env,omitempty"`
	// Dir is the working directory for both the build step and the child.
	Dir string `json:"dir,omitempty"`
	// ExpectExit is the exit status that counts as success; default 0.
	ExpectExit *int `json:"expect_exit,omitempty"`
	// Timeout bounds one repetition's child process ("30s", "5m"); empty
	// falls back to the executor's trial timeout.
	Timeout string `json:"timeout,omitempty"`
	// Components is the workload's nominal per-thread activity mix over the
	// kernel component vocabulary (e.g. {int-alu: 1, dram: 0.2}): what
	// nominal-activity validation predicts from, and what the mock meter
	// plants load with.
	Components map[string]float64 `json:"components,omitempty"`
	// Swept axes; defaults: threads [1], placements [none].
	Threads    []int    `json:"threads,omitempty"`
	Placements []string `json:"placements,omitempty"`
	// Repetition budget; defaults: 1 rep, no warmup — real applications
	// are expensive, so campaigns opt in to more.
	Reps     *int     `json:"reps,omitempty"`
	MinReps  *int     `json:"min_reps,omitempty"`
	MaxReps  *int     `json:"max_reps,omitempty"`
	CVTarget *float64 `json:"cv_target,omitempty"`
	Warmup   *int     `json:"warmup,omitempty"`
	MaxCV    *float64 `json:"max_cv,omitempty"`
}

// intOr resolves a pointer-optional int.
func intOr(p *int, def int) int {
	if p != nil {
		return *p
	}
	return def
}

// floatOr resolves a pointer-optional float.
func floatOr(p *float64, def float64) float64 {
	if p != nil {
		return *p
	}
	return def
}

// Spec resolves the workload into the serializable trial payload.
func (w Workload) Spec() (harness.ExternSpec, error) {
	spec := harness.ExternSpec{
		Workload:   w.Name,
		Exec:       w.Exec,
		Env:        w.Env,
		Dir:        w.Dir,
		Build:      w.Build,
		ExpectExit: intOr(w.ExpectExit, 0),
	}
	if w.Timeout != "" {
		d, err := time.ParseDuration(w.Timeout)
		if err != nil || d <= 0 {
			return spec, fmt.Errorf("extwork: workload %q has bad timeout %q", w.Name, w.Timeout)
		}
		spec.Timeout = d
	}
	if len(w.Components) > 0 {
		spec.Components = make(map[bench.Component]float64, len(w.Components))
		for c, weight := range w.Components {
			spec.Components[bench.Component(c)] = weight
		}
	}
	if err := spec.Validate(); err != nil {
		return spec, err
	}
	return spec, nil
}

// Trials validates the workload and expands its threads × placements grid
// into extern trials, Seq numbered 0-based within the workload.
// Campaign.Plan re-sequences them across the whole plan and stamps the
// campaign's counter spec and sampling interval.
func (w Workload) Trials() ([]harness.Trial, error) {
	spec, err := w.Spec()
	if err != nil {
		return nil, err
	}
	threads := w.Threads
	if len(threads) == 0 {
		threads = []int{1}
	}
	for _, n := range threads {
		if n <= 0 {
			return nil, fmt.Errorf("extwork: workload %q has non-positive thread count %d", w.Name, n)
		}
	}
	names := w.Placements
	if len(names) == 0 {
		names = []string{string(harness.PlaceNone)}
	}
	placements := make([]harness.Placement, len(names))
	for i, name := range names {
		p, err := harness.ParsePlacement(name)
		if err != nil {
			return nil, fmt.Errorf("extwork: workload %q: %w", w.Name, err)
		}
		placements[i] = p
	}
	minReps := intOr(w.MinReps, intOr(w.Reps, 1))
	maxReps := intOr(w.MaxReps, minReps)
	cvTarget, maxCV, warmup := floatOr(w.CVTarget, 0), floatOr(w.MaxCV, 0), intOr(w.Warmup, 0)
	switch {
	case minReps <= 0:
		return nil, fmt.Errorf("extwork: workload %q min reps must be positive, got %d", w.Name, minReps)
	case maxReps < minReps:
		return nil, fmt.Errorf("extwork: workload %q max reps %d below min reps %d", w.Name, maxReps, minReps)
	case !(cvTarget >= 0 && cvTarget <= math.MaxFloat64):
		return nil, fmt.Errorf("extwork: workload %q cv target must be non-negative and finite, got %v", w.Name, cvTarget)
	case !(maxCV >= 0 && maxCV <= math.MaxFloat64):
		return nil, fmt.Errorf("extwork: workload %q max cv must be non-negative and finite, got %v", w.Name, maxCV)
	case warmup < 0:
		return nil, fmt.Errorf("extwork: workload %q warmup must be non-negative", w.Name)
	}
	trials := make([]harness.Trial, 0, len(threads)*len(placements))
	for _, n := range threads {
		for _, placement := range placements {
			s := spec
			trials = append(trials, harness.Trial{
				Seq: len(trials),
				// The trial's Spec carries only the workload's name; there
				// is no kernel, and Iters is a fixed 1 so the key's i-field
				// stays well-formed (work is whatever the binary does).
				Spec:      bench.Spec{Name: w.Name, Iters: 1},
				Threads:   n,
				Placement: placement,
				Iters:     1,
				Warmup:    warmup,
				MinReps:   minReps,
				MaxReps:   maxReps,
				CVTarget:  cvTarget,
				MaxCV:     maxCV,
				Extern:    &s,
			})
		}
	}
	return trials, nil
}
