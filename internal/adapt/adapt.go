package adapt

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"energybench/internal/harness"
	"energybench/internal/model"
)

// Campaign planning algorithms. AlgoAll is the exhaustive default handled by
// the ordinary sweep path; the planner itself runs the other two.
const (
	AlgoAll    = "all"    // exhaustive grid, no planner
	AlgoActive = "active" // D-optimal active learning on the power model
	AlgoBO     = "bo"     // expected-improvement optimization over EDP
)

// ValidateAlgo checks a campaign/CLI algorithm name.
func ValidateAlgo(algo string) error {
	switch algo {
	case "", AlgoAll, AlgoActive, AlgoBO:
		return nil
	}
	return fmt.Errorf("unknown algo %q (want %s|%s|%s)", algo, AlgoAll, AlgoActive, AlgoBO)
}

// Defaults applied by Config.normalize, shared with the CLI flag defaults.
const (
	DefaultBatch     = 8
	DefaultTargetRSE = 0.05
	DefaultSeed      = 1
)

// Config parameterizes one adaptive campaign.
type Config struct {
	// Algo picks the planning mode: AlgoActive or AlgoBO (AlgoAll never
	// reaches the planner).
	Algo string
	// Batch is the number of trials dispatched per planning round
	// (default DefaultBatch).
	Batch int
	// Budget caps the number of newly executed trials; 0 means the full
	// candidate pool (the planner then stops early only via TargetRSE).
	Budget int
	// TargetRSE is the convergence target for AlgoActive: the campaign is
	// done once every fitted coefficient's relative standard error
	// (SE/|estimate|) is at or below it (default DefaultTargetRSE).
	TargetRSE float64
	// Seed drives every random choice the planner makes — the spread of the
	// seeding batch and nothing else (scoring is deterministic, ties break
	// on plan order) — so a campaign re-run with the same seed selects the
	// same trials (default DefaultSeed).
	Seed int64
}

func (c Config) normalize() (Config, error) {
	if err := ValidateAlgo(c.Algo); err != nil {
		return c, err
	}
	if c.Algo == "" || c.Algo == AlgoAll {
		return c, fmt.Errorf("adapt: algo %q is the exhaustive sweep, not a planner mode", c.Algo)
	}
	if c.Batch == 0 {
		c.Batch = DefaultBatch
	}
	if c.Batch < 1 {
		return c, fmt.Errorf("adapt: batch must be positive, got %d", c.Batch)
	}
	if c.Budget < 0 {
		return c, fmt.Errorf("adapt: budget must be non-negative, got %d", c.Budget)
	}
	if c.TargetRSE == 0 {
		c.TargetRSE = DefaultTargetRSE
	}
	if c.TargetRSE < 0 {
		return c, fmt.Errorf("adapt: target rse must be positive, got %v", c.TargetRSE)
	}
	if c.Seed == 0 {
		c.Seed = DefaultSeed
	}
	return c, nil
}

// Dispatcher runs one batch of trials, streaming results into the sink. The
// local *harness.Scheduler and the fleet coordinator's lease table satisfy
// it.
type Dispatcher interface {
	RunPlan(ctx context.Context, trials []harness.Trial, sink harness.ResultSink) error
}

// Round summarizes one planning round for the report.
type Round struct {
	// Trials is the number of trials dispatched this round.
	Trials int `json:"trials"`
	// MaxRSE is the worst relative standard error after the round's refit;
	// omitted while the fit is unidentifiable or a coefficient estimate is
	// exactly zero (infinite RSE).
	MaxRSE float64 `json:"max_rse,omitempty"`
	// BestEDP is the lowest observed EDP so far (bo mode).
	BestEDP float64 `json:"best_edp_js,omitempty"`
}

// Best is the most efficient configuration a bo campaign found.
type Best struct {
	Key       string  `json:"key"`
	Spec      string  `json:"spec"`
	SpecB     string  `json:"spec_b,omitempty"`
	Threads   int     `json:"threads"`
	Placement string  `json:"placement"`
	EDPJs     float64 `json:"edp_js"`
	PowerW    float64 `json:"power_w"`
	TimeS     float64 `json:"time_s"`
}

// Report is the planner's outcome document: how much of the grid it spent,
// whether it converged, and the model it converged to.
type Report struct {
	Algo string `json:"algo"`
	Seed int64  `json:"seed"`
	// GridTrials is the full exhaustive pool (prior + candidates); the
	// planner's whole point is TotalTrials ≪ GridTrials.
	GridTrials int `json:"grid_trials"`
	// PriorTrials seeded the fit from the store (resumed campaigns).
	PriorTrials int `json:"prior_trials"`
	// RanTrials were newly dispatched by this invocation; TotalTrials =
	// PriorTrials + RanTrials is what the final fit rests on.
	RanTrials   int     `json:"ran_trials"`
	TotalTrials int     `json:"total_trials"`
	Batch       int     `json:"batch"`
	Budget      int     `json:"budget"`
	TargetRSE   float64 `json:"target_rse,omitempty"`
	Rounds      []Round `json:"rounds"`
	Converged   bool    `json:"converged"`
	// MaxRSE is the final worst-coefficient relative standard error;
	// omitted when no identifiable fit was reached (or an estimate is 0).
	MaxRSE float64    `json:"max_rse,omitempty"`
	Fit    *model.Fit `json:"fit,omitempty"`
	Best   *Best      `json:"best,omitempty"`
}

// Planner runs one adaptive campaign over a fixed candidate pool.
type Planner struct {
	Cfg Config
	// Dispatch executes each selected batch; required.
	Dispatch Dispatcher
	// Log, when non-nil, receives one line per planning round.
	Log func(format string, args ...any)
}

// Run drives the campaign: pool is the not-yet-measured remainder of the
// full grid, prior the results already in the store for grid configurations
// (both disjoint; together they are the exhaustive campaign). Results of
// every dispatched trial stream into sink (which the caller owns and
// closes); the returned report carries the final fit. On a dispatch error
// the report reflects every round that completed.
func (p *Planner) Run(ctx context.Context, pool []harness.Trial, prior []harness.Result, sink harness.ResultSink) (*Report, error) {
	cfg, err := p.Cfg.normalize()
	if err != nil {
		return nil, err
	}
	if p.Dispatch == nil {
		return nil, fmt.Errorf("adapt: planner has no dispatcher")
	}
	budget := cfg.Budget
	if budget == 0 || budget > len(pool) {
		budget = len(pool)
	}
	rep := &Report{
		Algo:        cfg.Algo,
		Seed:        cfg.Seed,
		GridTrials:  len(pool) + len(prior),
		PriorTrials: len(prior),
		Batch:       cfg.Batch,
		Budget:      budget,
		TargetRSE:   cfg.TargetRSE,
		Rounds:      []Round{},
	}
	if cfg.Algo == AlgoBO {
		rep.TargetRSE = 0 // not the stopping rule in bo mode
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	results := append([]harness.Result(nil), prior...)
	candidates := append([]harness.Trial(nil), pool...)

	for {
		var fit *model.Fit
		if obs := model.FromResults(results); len(obs) > 0 {
			fit, _ = model.FitPower(obs) // unidentifiable is normal early on
		}
		done, maxRSE := p.stopped(cfg, fit, results, candidates)
		if f := finiteOrZero(maxRSE); fit != nil {
			rep.MaxRSE = f
			if n := len(rep.Rounds); n > 0 && rep.Rounds[n-1].MaxRSE == 0 {
				rep.Rounds[n-1].MaxRSE = f
			}
		}
		if done {
			rep.Converged = true
		}
		if done || len(candidates) == 0 || rep.RanTrials >= budget {
			rep.Fit = fit
			break
		}

		n := min(cfg.Batch, budget-rep.RanTrials)
		var batch []harness.Trial
		switch {
		case cfg.Algo == AlgoBO:
			batch = selectBO(candidates, results, n, rng)
		case fit == nil || fit.DoF <= 0:
			// Not yet identifiable (or exactly determined): keep spreading
			// measurements across the space instead of scoring a design
			// that cannot rank anything.
			batch = selectSpread(candidates, n, rng)
		default:
			batch = selectDOptimal(fit, candidates, n)
		}
		if len(batch) == 0 {
			// No candidate is worth running (bo: zero expected improvement
			// everywhere). That is bo-mode convergence.
			rep.Converged = true
			rep.Fit = fit
			break
		}
		candidates = removeTrials(candidates, batch)

		round := &harness.Collector{}
		var batchSink harness.ResultSink = round
		if sink != nil {
			batchSink = harness.MultiSink{round, sink}
		}
		runErr := p.Dispatch.RunPlan(ctx, batch, batchSink)
		// Completion order under a parallel dispatcher is racy; re-sorting
		// the round by configuration key keeps the accumulated observation
		// list — and therefore every later fit and selection — identical
		// across re-runs of the same seed.
		sort.Slice(round.Results, func(i, j int) bool {
			return harness.ResultKey(round.Results[i]) < harness.ResultKey(round.Results[j])
		})
		results = append(results, round.Results...)
		rep.RanTrials += len(batch)
		rep.TotalTrials = rep.PriorTrials + rep.RanTrials
		rep.Rounds = append(rep.Rounds, Round{Trials: len(batch), BestEDP: bestEDP(results)})
		if p.Log != nil {
			p.Log("adapt: round %d: ran %d trials (%d/%d budget, %d observations)",
				len(rep.Rounds), len(batch), rep.RanTrials, budget, len(results))
		}
		if runErr != nil {
			rep.Fit = fit
			return rep, fmt.Errorf("adapt: round %d: %w", len(rep.Rounds), runErr)
		}
	}

	rep.TotalTrials = rep.PriorTrials + rep.RanTrials
	if cfg.Algo == AlgoBO {
		rep.Best = bestConfig(results)
	}
	return rep, nil
}

// stopped decides whether the campaign has converged, returning the current
// worst relative standard error for reporting (active mode).
func (p *Planner) stopped(cfg Config, fit *model.Fit, results []harness.Result, candidates []harness.Trial) (bool, float64) {
	switch cfg.Algo {
	case AlgoActive:
		if fit == nil {
			return false, math.NaN()
		}
		maxRSE, ok := fit.MaxRSE()
		if !ok {
			return false, math.NaN()
		}
		return maxRSE <= cfg.TargetRSE, maxRSE
	case AlgoBO:
		// bo converges through selectBO returning an empty batch (no
		// remaining candidate with positive expected improvement) or by
		// exhausting the budget; there is no RSE criterion.
		return false, math.NaN()
	}
	return false, math.NaN()
}

// finiteOrZero maps NaN/Inf (no usable RSE) to 0 so the report, which treats
// 0 as "omitted", always marshals (encoding/json rejects non-finite floats).
func finiteOrZero(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func removeTrials(cands, batch []harness.Trial) []harness.Trial {
	drop := make(map[int]bool, len(batch))
	for _, t := range batch {
		drop[t.Seq] = true
	}
	kept := cands[:0]
	for _, t := range cands {
		if !drop[t.Seq] {
			kept = append(kept, t)
		}
	}
	return kept
}

func bestEDP(results []harness.Result) float64 {
	best := bestConfig(results)
	if best == nil {
		return 0
	}
	return best.EDPJs
}

// bestConfig is the lowest-EDP configuration observed so far.
func bestConfig(results []harness.Result) *Best {
	var best *Best
	for _, r := range results {
		if r.EDP <= 0 {
			continue
		}
		if best == nil || r.EDP < best.EDPJs {
			best = &Best{
				Key:       harness.ResultKey(r),
				Spec:      r.Spec,
				SpecB:     r.SpecB,
				Threads:   r.Threads,
				Placement: string(r.Placement),
				EDPJs:     r.EDP,
				PowerW:    r.PowerW.Mean,
				TimeS:     r.TimeS.Mean,
			}
		}
	}
	return best
}
