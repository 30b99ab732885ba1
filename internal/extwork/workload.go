package extwork

import (
	"fmt"
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
	// Repetition budget, checked by harness.Trial.ValidateBudget; defaults:
	// 1 rep, no warmup — real applications are expensive, so campaigns opt
	// in to more. An explicit reps: 0 is an error, not the default.
	Reps     *int     `json:"reps,omitempty"`
	MinReps  *int     `json:"min_reps,omitempty"`
	MaxReps  *int     `json:"max_reps,omitempty"`
	CVTarget *float64 `json:"cv_target,omitempty"`
	Warmup   *int     `json:"warmup,omitempty"`
	MaxCV    *float64 `json:"max_cv,omitempty"`
}

// Spec resolves the workload into its launch spec, the serializable trial
// payload every one of its trials carries; the campaign crosses it with the
// workload's threads × placements grid and repetition budget.
func (w Workload) Spec() (harness.ExternSpec, error) {
	spec := harness.ExternSpec{
		Workload: w.Name,
		Exec:     w.Exec,
		Env:      w.Env,
		Dir:      w.Dir,
		Build:    w.Build,
	}
	if w.ExpectExit != nil {
		spec.ExpectExit = *w.ExpectExit
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
	return spec, spec.Validate()
}
