package campaign

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"time"

	"energybench/internal/adapt"
	"energybench/internal/bench"
	"energybench/internal/extwork"
	"energybench/internal/harness"
	"energybench/internal/meter"
	"energybench/internal/perf"
)

// Executor names the trial execution backend a campaign requests.
const (
	ExecutorInProcess  = "inprocess"
	ExecutorSubprocess = "subprocess"
)

// Campaign is the top-level schema of a campaign file.
type Campaign struct {
	// Name labels the campaign in logs and stored artifacts.
	Name string `json:"name"`
	// Meter picks the energy backend: "mock" (default) or "rapl".
	Meter string `json:"meter,omitempty"`
	// MockWatts is the constant power the mock meter models (default 42;
	// a pointer so the zero value stays distinguishable — and rejectable —
	// rather than silently becoming the default).
	MockWatts *float64 `json:"mock_watts,omitempty"`
	// MockModel plants a linear power model on the mock meter:
	// "component:watts,..." terms added per active thread on top of
	// MockWatts (the intercept). It gives the mock configuration-dependent
	// power, which adaptive-planner campaigns and CI smokes fit against.
	MockModel string `json:"mock_model,omitempty"`
	// MockNoiseW adds a deterministic per-configuration perturbation of this
	// amplitude (watts) to a planted model, so fits see residual scatter.
	MockNoiseW *float64 `json:"mock_noise_w,omitempty"`
	// Algo picks the campaign planning algorithm: "all" (default, exhaustive
	// grid), "active" (D-optimal active learning converging the power
	// model), or "bo" (expected-improvement search for the lowest-EDP
	// configuration).
	Algo string `json:"algo,omitempty"`
	// Batch is the number of trials the adaptive planner dispatches per
	// round (default 8). Requires algo active|bo.
	Batch *int `json:"batch,omitempty"`
	// Budget caps the number of newly executed trials of an adaptive
	// campaign (default: the full grid). Requires algo active|bo.
	Budget *int `json:"budget,omitempty"`
	// TargetRSE is the active-mode convergence target: the campaign stops
	// once every coefficient's relative standard error is at or below it
	// (default 0.05). Requires algo active.
	TargetRSE *float64 `json:"target_rse,omitempty"`
	// Seed drives every random choice the adaptive planner makes (default
	// 1). Requires algo active|bo.
	Seed *int64 `json:"seed,omitempty"`
	// Executor picks the trial backend: "inprocess" (default) or
	// "subprocess" (each trial in a freshly exec'd worker child).
	Executor string `json:"executor,omitempty"`
	// Parallel is the maximum number of concurrently running trials under
	// the core-leasing scheduler; default 1. Values above 1 require the
	// subprocess executor. A pointer so an explicit `parallel: 0` is
	// rejected instead of silently becoming the default.
	Parallel *int `json:"parallel,omitempty"`
	// TrialTimeout is a Go duration ("90s", "2m") bounding one trial's wall
	// clock under the subprocess executor; empty means no limit.
	TrialTimeout string `json:"trial_timeout,omitempty"`
	// SampleInterval is a Go duration ("10ms") switching on in-trial
	// time-resolved sampling for every space and workload: the energy meter
	// (and any counter sessions) is polled on this period during each
	// measured repetition and a per-rep series rides on every sample. Empty
	// disables sampling.
	SampleInterval string `json:"sample_interval,omitempty"`
	// Store is the result store path, flushed per configuration: a single
	// JSONL file for .jsonl/.json paths, a sharded segment directory
	// otherwise.
	Store string `json:"store,omitempty"`
	// Resume skips trials whose configuration key Store already holds.
	Resume bool `json:"resume,omitempty"`
	// Counters enables hardware activity metering on every trial and names
	// the event set ("default" expands to the standard set). Empty with an
	// empty CounterBackend means no counters.
	Counters []string `json:"counters,omitempty"`
	// CounterBackend picks the activity backend: "perf" (default when
	// Counters is set) or "mock" for deterministic CI runs.
	CounterBackend string `json:"counter_backend,omitempty"`
	// Hosts restricts which fleet agents may execute this campaign's
	// trials, matched against each agent's registered host name. Empty
	// means any agent. The key is meaningful only when the campaign is
	// submitted to an `energybench serve` coordinator; a local `run
	// --campaign` rejects it so a fleet-scoped file cannot silently run
	// on the wrong machine.
	Hosts []string `json:"hosts,omitempty"`
	// Spaces are the exploration spaces to sweep, in order.
	Spaces []SpaceConfig `json:"spaces"`
	// Workloads are external applications to run as metered regions after
	// the kernel spaces, each expanded over its own threads × placements
	// grid (internal/extwork). A campaign may declare workloads alone
	// (validation-only runs against an existing fitted store) or alongside
	// spaces (fit and validate in one sweep).
	Workloads []extwork.Workload `json:"workloads,omitempty"`

	// plan is the trial list Validate planned, which Plan hands back so a
	// validated campaign is expanded and keyed once.
	plan []harness.Trial
}

// SpaceConfig is one exploration space: the cartesian product of (Specs ∪
// Corun pairs) × Threads × Placements, expanded by Trials. Optional fields
// are pointers where zero is a meaningful value (warmup 0, cv_target 0), so
// "omitted" and "explicitly zero" stay distinguishable; the defaults mirror
// the CLI flag defaults.
type SpaceConfig struct {
	// Name labels the space in errors and logs.
	Name string `json:"name,omitempty"`
	// Specs are catalog spec names to run solo.
	Specs []string `json:"specs,omitempty"`
	// Corun are co-run pairs, each "specA+specB".
	Corun []string `json:"corun,omitempty"`
	// Threads are the thread counts to sweep (default [1, 2], matching the
	// CLI --threads default). For a co-run pair a count of n means n
	// threads of each spec.
	Threads []int `json:"threads,omitempty"`
	// Placements are thread-pinning policies: none|compact|scatter
	// (default [none]).
	Placements []string `json:"placements,omitempty"`
	// Reps is the fixed repetition count (default 3); MinReps/MaxReps
	// switch on adaptive repetitions exactly as the CLI flags do.
	Reps     int      `json:"reps,omitempty"`
	MinReps  int      `json:"min_reps,omitempty"`
	MaxReps  int      `json:"max_reps,omitempty"`
	CVTarget *float64 `json:"cv_target,omitempty"`  // default 0.05
	Warmup   *int     `json:"warmup,omitempty"`     // default 1
	IterScal *float64 `json:"iter_scale,omitempty"` // default 1.0
	MaxCV    *float64 `json:"max_cv,omitempty"`     // default 0.2
}

// Load reads and validates a campaign file. Files whose first significant
// byte is '{' are decoded as JSON; everything else goes through the YAML
// subset parser. Both paths reject unknown keys.
func Load(path string) (*Campaign, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	c, err := Parse(data)
	if err != nil {
		// Parse/Validate errors already carry the "campaign:" prefix where
		// appropriate; only the file path is added here.
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return c, nil
}

// Parse decodes and validates campaign file contents (YAML subset or JSON).
func Parse(data []byte) (*Campaign, error) {
	trimmed := bytes.TrimSpace(data)
	if len(trimmed) == 0 {
		return nil, fmt.Errorf("empty campaign file")
	}
	jsonDoc := trimmed
	if trimmed[0] != '{' {
		v, err := parseYAML(data)
		if err != nil {
			return nil, err
		}
		jsonDoc, err = json.Marshal(v)
		if err != nil {
			return nil, fmt.Errorf("re-encoding parsed yaml: %w", err)
		}
	}
	dec := json.NewDecoder(bytes.NewReader(jsonDoc))
	dec.DisallowUnknownFields()
	var c Campaign
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("decoding campaign: %w", err)
	}
	if err := c.Validate(); err != nil {
		return nil, err
	}
	return &c, nil
}

func (c *Campaign) applyDefaults() {
	if c.Meter == "" {
		c.Meter = "mock"
	}
	if c.MockWatts == nil {
		w := 42.0
		c.MockWatts = &w
	}
	if c.Executor == "" {
		c.Executor = ExecutorInProcess
	}
	if c.Parallel == nil {
		p := 1
		c.Parallel = &p
	}
}

// validateExec checks the meter/executor/parallelism/timeout invariants: the
// executor name must be known, parallelism above 1 and per-trial timeouts
// both require the subprocess executor (in-process trials share one address
// space and meter, cannot overlap, and cannot be killed safely), and
// parallelism is refused outright under the rapl meter — concurrent trials
// all read the same machine-wide package counters, so every energy delta
// would silently include the other in-flight trials' work.
func validateExec(meterName, executor string, parallel int, timeout time.Duration) error {
	switch executor {
	case ExecutorInProcess, ExecutorSubprocess:
	default:
		return fmt.Errorf("unknown executor %q (want %s|%s)", executor, ExecutorInProcess, ExecutorSubprocess)
	}
	if parallel < 1 {
		return fmt.Errorf("parallel must be at least 1, got %d", parallel)
	}
	if parallel > 1 && executor != ExecutorSubprocess {
		return fmt.Errorf("parallel %d requires the subprocess executor: in-process trials share one address space and meter and cannot run concurrently", parallel)
	}
	if parallel > 1 && meterName == "rapl" {
		return fmt.Errorf("parallel %d with the rapl meter would corrupt energy numbers: concurrent trials share the package energy counters (absolute characterization needs parallel 1)", parallel)
	}
	if timeout < 0 {
		return fmt.Errorf("trial timeout must be non-negative, got %v", timeout)
	}
	if timeout > 0 && executor != ExecutorSubprocess {
		return fmt.Errorf("a trial timeout requires the subprocess executor: an in-process trial cannot be killed safely")
	}
	return nil
}

// validatePlanner checks the adaptive-planner knob invariants: the algo name
// must be known; batch, budget, target_rse, and seed are only meaningful on
// an adaptive campaign (nil means unset); and target_rse applies only to
// active mode — bo's stopping rule is expected improvement, not coefficient
// precision, so a target_rse there would be silently ignored and is
// rejected instead.
func validatePlanner(algo string, batch, budget *int, targetRSE *float64, seed *int64) error {
	if err := adapt.ValidateAlgo(algo); err != nil {
		return err
	}
	if algo == "" || algo == adapt.AlgoAll {
		switch {
		case batch != nil:
			return fmt.Errorf("batch requires algo active|bo")
		case budget != nil:
			return fmt.Errorf("budget requires algo active|bo")
		case targetRSE != nil:
			return fmt.Errorf("target_rse requires algo active")
		case seed != nil:
			return fmt.Errorf("seed requires algo active|bo")
		}
		return nil
	}
	if batch != nil && *batch < 1 {
		return fmt.Errorf("batch must be at least 1, got %d", *batch)
	}
	if budget != nil && *budget < 1 {
		return fmt.Errorf("budget must be at least 1, got %d", *budget)
	}
	if targetRSE != nil {
		if algo == adapt.AlgoBO {
			return fmt.Errorf("target_rse applies only to algo active (bo stops on expected improvement)")
		}
		if !(*targetRSE > 0 && *targetRSE <= math.MaxFloat64) {
			return fmt.Errorf("target_rse must be positive and finite, got %v", *targetRSE)
		}
	}
	if seed != nil && *seed == 0 {
		return fmt.Errorf("seed must be nonzero (0 means unset; the default is %d)", adapt.DefaultSeed)
	}
	return nil
}

// Validate fills in the defaults of omitted top-level fields, checks the
// campaign's cross-field invariants, and then plans it (Plan), which checks
// every space and workload as it expands them; Plan hands that plan back
// until the next Validate, so a campaign edited after Validate must be
// validated again. It is the one validator behind campaign files and the
// run/list flags, which describe a one-space campaign.
func (c *Campaign) Validate() error {
	c.plan = nil
	c.applyDefaults()
	switch c.Meter {
	case "mock", "rapl":
	default:
		return fmt.Errorf("campaign: unknown meter %q (want mock|rapl)", c.Meter)
	}
	if c.MockModel != "" && c.Meter != "mock" {
		return fmt.Errorf("campaign: mock_model requires the mock meter, not %q", c.Meter)
	}
	var noiseW float64
	if c.MockNoiseW != nil {
		noiseW = *c.MockNoiseW
	}
	if err := meter.ValidateMock(*c.MockWatts, c.MockModel, noiseW); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	if err := validatePlanner(c.Algo, c.Batch, c.Budget, c.TargetRSE, c.Seed); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	timeout, err := c.Timeout()
	if err != nil {
		return err
	}
	if err := validateExec(c.Meter, c.Executor, *c.Parallel, timeout); err != nil {
		return fmt.Errorf("campaign: %w", err)
	}
	if c.Resume && c.Store == "" {
		return fmt.Errorf("campaign: resume requires a store")
	}
	for _, h := range c.Hosts {
		if strings.TrimSpace(h) == "" {
			return fmt.Errorf("campaign: hosts entries must be non-empty host names")
		}
		if strings.ContainsAny(h, "|/") {
			return fmt.Errorf("campaign: host name %q must not contain '|' or '/' (they delimit store keys)", h)
		}
	}
	if len(c.Spaces) == 0 && len(c.Workloads) == 0 {
		return fmt.Errorf("campaign: no spaces or workloads declared")
	}
	if len(c.Workloads) > 0 && c.Algo != "" && c.Algo != adapt.AlgoAll {
		// Adaptive planners search the kernel configuration space; external
		// workloads are validation targets, not fit observations, so an
		// adaptive campaign cannot decide when a workload is "worth" running.
		return fmt.Errorf("campaign: workloads require algo all (adaptive planners search the kernel space only)")
	}
	seen := map[string]bool{}
	for _, w := range c.Workloads {
		if seen[w.Name] {
			return fmt.Errorf("campaign: duplicate workload name %q", w.Name)
		}
		seen[w.Name] = true
	}
	c.plan, err = c.Plan()
	return err
}

// AdaptConfig resolves the planner knobs into an adapt.Config; ok is false
// for an exhaustive (algo all or unset) campaign. Unset knobs stay zero —
// the planner applies its documented defaults.
func (c *Campaign) AdaptConfig() (adapt.Config, bool) {
	if c.Algo != adapt.AlgoActive && c.Algo != adapt.AlgoBO {
		return adapt.Config{}, false
	}
	cfg := adapt.Config{Algo: c.Algo}
	if c.Batch != nil {
		cfg.Batch = *c.Batch
	}
	if c.Budget != nil {
		cfg.Budget = *c.Budget
	}
	if c.TargetRSE != nil {
		cfg.TargetRSE = *c.TargetRSE
	}
	if c.Seed != nil {
		cfg.Seed = *c.Seed
	}
	return cfg, true
}

// CounterSpec resolves the counters/counter_backend fields into the
// normalized activity-metering spec applied to every space, or nil when the
// campaign requests no counters.
func (c *Campaign) CounterSpec() (*perf.Spec, error) {
	if len(c.Counters) == 0 && c.CounterBackend == "" {
		return nil, nil
	}
	spec, err := perf.Spec{Backend: c.CounterBackend, Events: c.Counters}.Normalize()
	if err != nil {
		return nil, fmt.Errorf("campaign: %w", err)
	}
	return &spec, nil
}

// Timeout parses the trial_timeout field; zero when unset.
func (c *Campaign) Timeout() (time.Duration, error) {
	if c.TrialTimeout == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(c.TrialTimeout)
	if err != nil {
		return 0, fmt.Errorf("campaign: bad trial_timeout %q: %w", c.TrialTimeout, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("campaign: trial_timeout must be positive, got %v", d)
	}
	return d, nil
}

// Sampling parses the sample_interval field; zero when unset.
func (c *Campaign) Sampling() (time.Duration, error) {
	if c.SampleInterval == "" {
		return 0, nil
	}
	d, err := time.ParseDuration(c.SampleInterval)
	if err != nil {
		return 0, fmt.Errorf("campaign: bad sample_interval %q: %w", c.SampleInterval, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("campaign: sample_interval must be positive, got %v", d)
	}
	return d, nil
}

func (sc *SpaceConfig) label(i int) string {
	if sc.Name != "" {
		return fmt.Sprintf("%q", sc.Name)
	}
	return fmt.Sprintf("#%d", i+1)
}

// Trials validates the space and expands it into its ordered trials: each
// solo spec, then each co-run pair, resolved against the benchmark catalog
// and scaled by iter_scale (default 1), then crossed with the space's grid
// with the CLI flag defaults (spaceDefaults). Campaign.Plan stamps the
// counter spec and sampling interval and drops repeated keys.
func (sc *SpaceConfig) Trials() ([]harness.Trial, error) {
	iterScale := valueOr(sc.IterScal, 1.0)
	switch {
	case !(iterScale > 0 && iterScale <= math.MaxFloat64):
		return nil, fmt.Errorf("iter_scale must be positive and finite, got %v", iterScale)
	case len(sc.Specs) == 0 && len(sc.Corun) == 0:
		return nil, fmt.Errorf("space declares neither specs nor corun pairs")
	}
	// lookup resolves a spec name and its scaled iteration count.
	lookup := func(name string) (bench.Spec, int, error) {
		s, err := bench.Lookup(strings.TrimSpace(name))
		if err != nil {
			return s, 0, err
		}
		iters, ok := scaleIters(s.Iters, iterScale)
		if !ok {
			return s, 0, fmt.Errorf("iter_scale %v overflows spec %q's iteration count", iterScale, s.Name)
		}
		return s, iters, nil
	}
	bases := make([]harness.Trial, 0, len(sc.Specs)+len(sc.Corun))
	for _, name := range sc.Specs {
		s, iters, err := lookup(name)
		if err != nil {
			return nil, err
		}
		bases = append(bases, harness.Trial{Spec: s, Iters: iters})
	}
	for _, pair := range sc.Corun {
		nameA, nameB, ok := strings.Cut(pair, "+")
		if !ok {
			return nil, fmt.Errorf("corun pair %q is not of the form specA+specB", pair)
		}
		a, itersA, errA := lookup(nameA)
		b, itersB, errB := lookup(nameB)
		if err := cmp.Or(errA, errB); err != nil {
			return nil, err
		}
		bases = append(bases, harness.Trial{Spec: a, Iters: itersA, SpecB: &b, ItersB: itersB})
	}
	g := grid{threads: sc.Threads, placements: sc.Placements, warmup: sc.Warmup, cvTarget: sc.CVTarget, maxCV: sc.MaxCV,
		reps: nonZero(sc.Reps), minReps: nonZero(sc.MinReps), maxReps: nonZero(sc.MaxReps)}
	return g.trials(spaceDefaults, bases...)
}

// workloadTrials crosses a workload's launch spec (Workload.Spec) with its
// grid. Its trials' Spec carries only the workload's name, and Iters is a
// fixed 1 so the key's i-field stays well-formed (the binary does the work).
func workloadTrials(w extwork.Workload) ([]harness.Trial, error) {
	spec, err := w.Spec()
	if err != nil {
		return nil, err
	}
	g := grid{threads: w.Threads, placements: w.Placements, warmup: w.Warmup, cvTarget: w.CVTarget, maxCV: w.MaxCV,
		reps: w.Reps, minReps: w.MinReps, maxReps: w.MaxReps}
	return g.trials(workloadDefaults, harness.Trial{Spec: bench.Spec{Name: w.Name, Iters: 1}, Iters: 1, Extern: &spec})
}

// grid is the part of a space or workload that every sweep entry shares:
// the thread counts and placements its trials cross, and the repetition
// budget they carry. Omitted fields are nil or empty.
type grid struct {
	threads                        []int
	placements                     []string
	reps, minReps, maxReps, warmup *int
	cvTarget, maxCV                *float64
}

// gridDefaults are what an entry kind's omitted grid fields resolve to;
// placements default to [none] for every kind.
type gridDefaults struct {
	threads         []int
	reps, warmup    int
	cvTarget, maxCV float64
}

var (
	// spaceDefaults mirror the run flag defaults.
	spaceDefaults = gridDefaults{threads: []int{1, 2}, reps: 3, warmup: 1, cvTarget: 0.05, maxCV: 0.2}
	// workloadDefaults are one repetition and no warm-up: real
	// applications are expensive, so campaigns opt in to more.
	workloadDefaults = gridDefaults{threads: []int{1}, reps: 1}
)

// trials resolves the grid against def (reps is the shorthand for min_reps
// = max_reps), checks the budget (harness.Trial.ValidateBudget), the thread
// counts and the placements once, and crosses each base trial with every
// thread count and then every placement, in order, Seq counted from 0.
func (g grid) trials(def gridDefaults, bases ...harness.Trial) ([]harness.Trial, error) {
	minReps := valueOr(g.minReps, valueOr(g.reps, def.reps))
	budget := harness.Trial{Warmup: valueOr(g.warmup, def.warmup), MinReps: minReps, MaxReps: valueOr(g.maxReps, minReps),
		CVTarget: valueOr(g.cvTarget, def.cvTarget), MaxCV: valueOr(g.maxCV, def.maxCV)}
	if err := budget.ValidateBudget(); err != nil {
		return nil, err
	}
	if len(g.threads) == 0 {
		g.threads = def.threads
	}
	for _, n := range g.threads {
		if n <= 0 {
			return nil, fmt.Errorf("non-positive thread count %d", n)
		}
	}
	if len(g.placements) == 0 {
		g.placements = []string{string(harness.PlaceNone)}
	}
	placements := make([]harness.Placement, len(g.placements))
	for i, name := range g.placements {
		p, err := harness.ParsePlacement(name)
		if err != nil {
			return nil, err
		}
		placements[i] = p
	}
	trials := make([]harness.Trial, 0, len(bases)*len(g.threads)*len(placements))
	for _, t := range bases {
		t.Warmup, t.MinReps, t.MaxReps, t.CVTarget, t.MaxCV = budget.Warmup, budget.MinReps, budget.MaxReps, budget.CVTarget, budget.MaxCV
		for _, n := range g.threads {
			for _, p := range placements {
				t.Seq, t.Threads, t.Placement = len(trials), n, p
				trials = append(trials, t)
			}
		}
	}
	return trials, nil
}

// nonZero maps a space's zero rep count, which means "omitted", to nil.
func nonZero(n int) *int {
	if n == 0 {
		return nil
	}
	return &n
}

// valueOr resolves a pointer-optional field.
func valueOr[T any](p *T, def T) T {
	if p != nil {
		return *p
	}
	return def
}

// scaleIters applies a space's iteration scale to a spec's default count,
// never going below one iteration; ok is false when the scaled count does
// not fit in an int.
func scaleIters(iters int, scale float64) (n int, ok bool) {
	f := float64(iters) * scale
	if f >= math.MaxInt {
		return 0, false
	}
	return max(int(f), 1), true
}

// Plan expands every space in declaration order into one combined trial
// list — kernel spaces first, then external workloads — re-sequencing Seq
// across boundaries so the campaign reads as a single plan to schedulers,
// dry runs, and progress logs. A configuration key is planned once, at its
// first appearance: spaces may overlap, and a space or workload may repeat
// an entry. (Executors and fleet agents match results to trials by key.)
// The campaign's counter spec, normalized once by CounterSpec, and its
// sampling interval (when any) are stamped on every trial. A validated
// campaign returns a copy of the plan Validate made.
func (c *Campaign) Plan() ([]harness.Trial, error) {
	if c.plan != nil {
		return slices.Clone(c.plan), nil
	}
	counters, err := c.CounterSpec()
	if err != nil {
		return nil, err
	}
	sampleEvery, err := c.Sampling()
	if err != nil {
		return nil, err
	}
	var all []harness.Trial
	planned := map[string]bool{}
	add := func(trials []harness.Trial) {
		for _, t := range trials {
			if key := t.Key(c.Meter); !planned[key] {
				planned[key] = true
				t.Seq, t.Counters, t.SampleInterval = len(all), counters, sampleEvery
				all = append(all, t)
			}
		}
	}
	for i := range c.Spaces {
		trials, err := c.Spaces[i].Trials()
		if err != nil {
			return nil, fmt.Errorf("campaign: space %s: %w", c.Spaces[i].label(i), err)
		}
		add(trials)
	}
	for i, w := range c.Workloads {
		trials, err := workloadTrials(w)
		if err != nil {
			return nil, fmt.Errorf("campaign: workload #%d: %w", i+1, err)
		}
		add(trials)
	}
	return all, nil
}
