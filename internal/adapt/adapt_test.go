package adapt

import (
	"context"
	"fmt"
	"hash/fnv"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"energybench/internal/bench"
	"energybench/internal/harness"
	"energybench/internal/model"
	"energybench/internal/stats"
)

// plantedDispatcher synthesizes results from a planted linear power model —
// the same formula meter.Mock uses, minus the real kernel execution — so
// planner tests run in microseconds and every "measurement" is exact.
type plantedDispatcher struct {
	staticW float64
	coeffW  map[bench.Component]float64
	noiseW  float64
	ran     []string       // keys in dispatch order
	count   map[string]int // per-key dispatch count
}

func (d *plantedDispatcher) RunPlan(ctx context.Context, trials []harness.Trial, sink harness.ResultSink) error {
	if d.count == nil {
		d.count = map[string]int{}
	}
	for _, t := range trials {
		key := t.Key("mock")
		d.ran = append(d.ran, key)
		d.count[key]++
		if sink != nil {
			if err := sink.Consume(d.result(t)); err != nil {
				return err
			}
		}
	}
	return nil
}

func (d *plantedDispatcher) result(t harness.Trial) harness.Result {
	act := t.Activity()
	comps := make([]bench.Component, 0, len(act))
	for c := range act {
		comps = append(comps, c)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i] < comps[j] })
	power := d.staticW
	h := fnv.New64a()
	for _, c := range comps {
		power += d.coeffW[c] * act[c]
		fmt.Fprintf(h, "%s=%g|", c, act[c])
	}
	if d.noiseW > 0 {
		u := float64(h.Sum64()) / float64(^uint64(0))
		power += (2*u - 1) * d.noiseW
	}
	timeS := 1 / float64(t.Threads)
	r := harness.Result{
		Spec:      t.Spec.Name,
		Component: t.Spec.Component,
		Threads:   t.Threads,
		Iters:     t.Iters,
		Placement: t.Placement,
		Meter:     "mock",
		PowerW:    stats.Summary{Mean: power},
		TimeS:     stats.Summary{Mean: timeS},
		EnergyJ:   stats.Summary{Mean: power * timeS},
		EDP:       power * timeS * timeS,
	}
	if t.SpecB != nil {
		r.SpecB = t.SpecB.Name
		r.ComponentB = t.SpecB.Component
		r.ThreadsB = t.Threads
		r.ItersB = t.ItersB
	}
	return r
}

// plantedCoeffs is the model every planner test plants: four well-separated
// per-thread coefficients over distinct components.
func plantedCoeffs() map[bench.Component]float64 {
	return map[bench.Component]float64{
		"int-alu": 2, "fpu": 5, "l1": 1.5, "dram": 8,
	}
}

// testPool expands the reference planner grid: four single-component specs
// crossed with six thread counts — 24 trials, 5 model parameters.
func testPool(t *testing.T) []harness.Trial {
	t.Helper()
	var specs []bench.Spec
	for _, name := range []string{"int-alu", "fp-mac", "chase-l1", "chase-dram"} {
		s, err := bench.Lookup(name)
		if err != nil {
			t.Fatalf("lookup %s: %v", name, err)
		}
		specs = append(specs, s)
	}
	return gridTrials(specs, nil, []harness.Placement{harness.PlaceNone})
}

// gridTrials expands solo specs, then co-run pairs ({A, B} each), over
// thread counts 1–6 and the placements, in campaign plan order with Seq
// counted from 0: one measured rep, no warm-up, unscaled iterations.
func gridTrials(specs []bench.Spec, pairs [][2]bench.Spec, placements []harness.Placement) []harness.Trial {
	var trials []harness.Trial
	add := func(a bench.Spec, b *bench.Spec) {
		for n := 1; n <= 6; n++ {
			for _, p := range placements {
				tr := harness.Trial{Seq: len(trials), Spec: a, SpecB: b, Threads: n, Placement: p,
					Iters: a.Iters, MinReps: 1, MaxReps: 1}
				if b != nil {
					tr.ItersB = b.Iters
				}
				trials = append(trials, tr)
			}
		}
	}
	for _, s := range specs {
		add(s, nil)
	}
	for _, p := range pairs {
		add(p[0], &p[1])
	}
	return trials
}

// TestActiveRecoversPlantedModel is the acceptance criterion: on the planted
// model, algo active converges with every coefficient within 5% of the
// exhaustive grid's fit while running at most half of the grid.
func TestActiveRecoversPlantedModel(t *testing.T) {
	pool := testPool(t)
	d := &plantedDispatcher{staticW: 42, coeffW: plantedCoeffs(), noiseW: 0.3}

	// Exhaustive reference: fit every configuration in the grid.
	exhaustive := &plantedDispatcher{staticW: 42, coeffW: plantedCoeffs(), noiseW: 0.3}
	all := &harness.Collector{}
	if err := exhaustive.RunPlan(context.Background(), pool, all); err != nil {
		t.Fatalf("exhaustive: %v", err)
	}
	fullFit, err := model.FitPower(model.FromResults(all.Results))
	if err != nil {
		t.Fatalf("exhaustive fit: %v", err)
	}

	p := &Planner{Cfg: Config{Algo: AlgoActive, Batch: 8}, Dispatch: d, Log: t.Logf}
	rep, err := p.Run(context.Background(), pool, nil, nil)
	if err != nil {
		t.Fatalf("planner: %v", err)
	}
	if !rep.Converged {
		t.Fatalf("planner did not converge: max_rse=%v after %d trials", rep.MaxRSE, rep.RanTrials)
	}
	if rep.RanTrials > len(pool)/2 {
		t.Fatalf("planner ran %d of %d grid trials, want at most half", rep.RanTrials, len(pool))
	}
	if rep.Fit == nil {
		t.Fatal("converged report carries no fit")
	}
	checkWithin := func(name string, got, want float64) {
		t.Helper()
		if want == 0 || math.Abs(got-want)/math.Abs(want) > 0.05 {
			t.Errorf("%s: adaptive %v vs exhaustive %v differs by more than 5%%", name, got, want)
		}
	}
	checkWithin("p_static", rep.Fit.PStaticW, fullFit.PStaticW)
	for c, want := range fullFit.CoeffW {
		checkWithin(string(c), rep.Fit.CoeffW[c], want)
	}
}

// TestActiveResumesFromPrior proves an interrupted adaptive campaign
// continues from stored results: no already-measured configuration is
// dispatched again, and the resumed run still converges within the combined
// half-grid bound.
func TestActiveResumesFromPrior(t *testing.T) {
	pool := testPool(t)
	coeffs := plantedCoeffs()

	// First (interrupted) campaign: one batch, then stop on budget.
	d1 := &plantedDispatcher{staticW: 42, coeffW: coeffs, noiseW: 0.3}
	sink1 := &harness.Collector{}
	p1 := &Planner{Cfg: Config{Algo: AlgoActive, Batch: 6, Budget: 6}, Dispatch: d1}
	rep1, err := p1.Run(context.Background(), pool, nil, sink1)
	if err != nil {
		t.Fatalf("first run: %v", err)
	}
	if rep1.RanTrials != 6 {
		t.Fatalf("first run executed %d trials, want the budget of 6", rep1.RanTrials)
	}

	// Resume: drop the already-run trials from the pool (what the CLI's
	// --resume key filtering does) and seed the prior results.
	doneKeys := map[string]bool{}
	for _, k := range d1.ran {
		doneKeys[k] = true
	}
	remaining, skipped := harness.FilterTrials(pool, func(t harness.Trial) bool {
		return doneKeys[t.Key("mock")]
	})
	if skipped != 6 {
		t.Fatalf("resume filtered %d trials, want 6", skipped)
	}

	d2 := &plantedDispatcher{staticW: 42, coeffW: coeffs, noiseW: 0.3}
	p2 := &Planner{Cfg: Config{Algo: AlgoActive, Batch: 6}, Dispatch: d2}
	rep2, err := p2.Run(context.Background(), remaining, sink1.Results, nil)
	if err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	for _, k := range d2.ran {
		if doneKeys[k] {
			t.Errorf("resumed campaign re-ran already-stored trial %s", k)
		}
	}
	if rep2.PriorTrials != 6 {
		t.Errorf("resumed report counts %d prior trials, want 6", rep2.PriorTrials)
	}
	if !rep2.Converged {
		t.Fatalf("resumed campaign did not converge (max_rse=%v)", rep2.MaxRSE)
	}
	if total := rep2.TotalTrials; total > len(pool)/2 {
		t.Errorf("resumed campaign used %d total trials, want at most half of %d", total, len(pool))
	}
}

// TestPlannerDeterminism: the same seed selects the same trials in the same
// order — the planner's only randomness is the seeded spread.
func TestPlannerDeterminism(t *testing.T) {
	pool := testPool(t)
	run := func(seed int64) []string {
		d := &plantedDispatcher{staticW: 42, coeffW: plantedCoeffs(), noiseW: 0.3}
		p := &Planner{Cfg: Config{Algo: AlgoActive, Batch: 4, Seed: seed}, Dispatch: d}
		if _, err := p.Run(context.Background(), pool, nil, nil); err != nil {
			t.Fatalf("run(seed=%d): %v", seed, err)
		}
		return d.ran
	}
	a, b := run(7), run(7)
	if len(a) != len(b) {
		t.Fatalf("same seed dispatched %d vs %d trials", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at dispatch %d: %s vs %s", i, a[i], b[i])
		}
	}
}

// TestBOFindsBestEDP: under the planted model the true EDP minimum is the
// lowest-coefficient spec at the highest thread count; bo must surface it
// without running the whole grid.
func TestBOFindsBestEDP(t *testing.T) {
	pool := testPool(t)
	d := &plantedDispatcher{staticW: 42, coeffW: plantedCoeffs(), noiseW: 0.1}

	// True argmin over the full grid, from the same synthetic results.
	ref := &plantedDispatcher{staticW: 42, coeffW: plantedCoeffs(), noiseW: 0.1}
	all := &harness.Collector{}
	if err := ref.RunPlan(context.Background(), pool, all); err != nil {
		t.Fatalf("reference: %v", err)
	}
	want := bestConfig(all.Results)

	p := &Planner{Cfg: Config{Algo: AlgoBO, Batch: 8, Budget: 16}, Dispatch: d}
	rep, err := p.Run(context.Background(), pool, nil, nil)
	if err != nil {
		t.Fatalf("bo: %v", err)
	}
	if rep.Best == nil {
		t.Fatal("bo report has no best configuration")
	}
	if rep.Best.Key != want.Key {
		t.Errorf("bo best %s (edp %v), true best %s (edp %v)", rep.Best.Key, rep.Best.EDPJs, want.Key, want.EDPJs)
	}
	if rep.RanTrials >= len(pool) {
		t.Errorf("bo ran the whole grid (%d trials)", rep.RanTrials)
	}
}

func TestConfigValidation(t *testing.T) {
	pool := testPool(t)
	d := &plantedDispatcher{staticW: 42, coeffW: plantedCoeffs()}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"exhaustive algo", Config{Algo: AlgoAll}},
		{"unknown algo", Config{Algo: "random"}},
		{"negative batch", Config{Algo: AlgoActive, Batch: -1}},
		{"negative budget", Config{Algo: AlgoActive, Budget: -2}},
		{"negative target", Config{Algo: AlgoActive, TargetRSE: -0.1}},
	} {
		p := &Planner{Cfg: tc.cfg, Dispatch: d}
		if _, err := p.Run(context.Background(), pool, nil, nil); err == nil {
			t.Errorf("%s: Run accepted invalid config %+v", tc.name, tc.cfg)
		}
	}
	if err := ValidateAlgo("bo"); err != nil {
		t.Errorf("ValidateAlgo(bo): %v", err)
	}
	if err := ValidateAlgo("anneal"); err == nil {
		t.Error("ValidateAlgo accepted unknown algorithm")
	}
}

// TestActiveBudgetExhaustion: an unreachable target stops at the budget with
// Converged false and a fit over everything measured.
func TestActiveBudgetExhaustion(t *testing.T) {
	pool := testPool(t)
	d := &plantedDispatcher{staticW: 42, coeffW: plantedCoeffs(), noiseW: 5}
	p := &Planner{Cfg: Config{Algo: AlgoActive, Batch: 5, Budget: 10, TargetRSE: 1e-12}, Dispatch: d}
	rep, err := p.Run(context.Background(), pool, nil, nil)
	if err != nil {
		t.Fatalf("planner: %v", err)
	}
	if rep.Converged {
		t.Error("planner claims convergence at an impossible target")
	}
	if rep.RanTrials != 10 {
		t.Errorf("planner ran %d trials, want the budget of 10", rep.RanTrials)
	}
	if rep.Fit == nil {
		t.Error("budget-exhausted report carries no fit")
	}
}

// pinPool is a wider planner grid than testPool: four specs crossed with
// threads 1–6 and placements none/compact, plus the co-runs
// int-alu+chase-dram and int-alu+int-alu (the latter stacks both sides on
// one component) — 72 trials.
func pinPool(t *testing.T) []harness.Trial {
	t.Helper()
	lookup := func(name string) bench.Spec {
		s, err := bench.Lookup(name)
		if err != nil {
			t.Fatalf("lookup %s: %v", name, err)
		}
		return s
	}
	intALU := lookup("int-alu")
	return gridTrials(
		[]bench.Spec{intALU, lookup("fp-mac"), lookup("chase-l1"), lookup("chase-dram")},
		[][2]bench.Spec{{intALU, lookup("chase-dram")}, {intALU, intALU}},
		[]harness.Placement{harness.PlaceNone, harness.PlaceCompact})
}

// TestPlannerPicksPinned pins both planners' exact dispatch orders (as plan
// Seqs) and final fits over pinPool, for three seeds and two batch sizes,
// so a refactor of the design row, the solver or the leverage scoring that
// changes any pick or any fitted bit fails here.
func TestPlannerPicksPinned(t *testing.T) {
	pool := pinPool(t)
	seqOf := map[string]int{}
	for _, tr := range pool {
		seqOf[tr.Key("mock")] = tr.Seq
	}
	for _, tc := range []struct {
		algo     string
		seed     int64
		batch    int
		ran, fit string
	}{
		{AlgoActive, 1, 3,
			"12 1 61 25 48 24",
			"p_static=42.036362368208735 dram=7.870924333742803 fpu=4.939441590054634 int-alu=1.9999083757401714 l1=1.343216187255492"},
		{AlgoActive, 1, 8,
			"12 1 61 49 25 0 24 48",
			"p_static=42.03636236820903 dram=7.870924333742685 fpu=4.939441590054324 int-alu=1.9999083757399811 l1=1.3432161872551822"},
		{AlgoActive, 7, 3,
			"37 13 24 39 15 12 0 1 2 70 34 58 22 46 35 23 71 59 47 32 20 68 33 21 69 44 56 45 30 66",
			"p_static=42.021964103963505 dram=7.976567383651639 fpu=4.990612570238266 int-alu=2.0090334889950316 l1=1.472375056998266"},
		{AlgoActive, 7, 8,
			"37 13 24 0 36 49 1 25",
			"p_static=42.11446838458814 dram=7.870924333742835 fpu=4.861335573675219 int-alu=1.9218023593608102 l1=1.265110170876077"},
		{AlgoActive, 42, 3,
			"37 49 13 51 61 0 24 25 26 22 70 58 34 46 23 35 71 59 47 20 32 68 21 33 69 44 56 45 18 1",
			"p_static=42.00590145549582 dram=7.978838263311462 fpu=4.994139509009171 int-alu=2.011388705582499 l1=1.474372712211228"},
		{AlgoActive, 42, 8,
			"37 49 13 25 48 61 12 60",
			"p_static=42.19257440096706 dram=7.792818317363777 fpu=4.7832295572963 int-alu=1.9218023593609583 l1=1.1870041544971577"},
		{AlgoBO, 1, 3,
			"12 1 61 25 48 24 37 26 0 14 36 49 13 15 17 60 62 64 29 28 4 5",
			"p_static=41.99341540604676 dram=7.947542686434977 fpu=4.991687166151841 int-alu=2.0106716110592666 l1=1.4525916717702443"},
		{AlgoBO, 1, 8,
			"12 1 61 49 25 0 24 48 27 50 26 2 37 36 3 63 13 15 17 19 21 23 60 62 31 30 6 7 33 32",
			"p_static=41.955106601903566 dram=8.008881674380518 fpu=5.004940730334688 int-alu=2.025221851258138 l1=1.4803284995062915"},
		{AlgoBO, 7, 3,
			"37 13 24 39 15 12 0 1 2 25 27 29 36 38 40 48 49 50 60 61 62 28 5 4 65 64 16 17",
			"p_static=41.97535467534429 dram=8.003262898637962 fpu=5.000210894062579 int-alu=2.0149879877946617 l1=1.4601169762296022"},
		{AlgoBO, 7, 8,
			"37 13 24 0 36 49 1 25 39 15 12 2 38 27 61 51 48 50 52 54 56 58 60 62 31 6 30 33 7 8",
			"p_static=41.998170127745404 dram=7.977984900385659 fpu=4.985119761765302 int-alu=2.0093106609826816 l1=1.4680319717886048"},
		{AlgoBO, 42, 3,
			"37 49 13 51 61 0 53 63 25 1 3 5 12 14 16 24 26 28 36 38 40 48 50 52 60 62 64 29 4 65",
			"p_static=42.024889837726334 dram=7.954732443950255 fpu=4.977118318811646 int-alu=1.9998844168584209 l1=1.4394773252370836"},
		{AlgoBO, 42, 8,
			"37 49 13 25 48 61 12 60 51 63 0 39 50 36 24 62 1 3 5 7 9 11 34 35 30 31 66 67 6 32",
			"p_static=41.96953644877498 dram=8.01652047828035 fpu=5.006267509488383 int-alu=2.0132039031546394 l1=1.481493604279458"},
	} {
		name := fmt.Sprintf("%s/seed%d/batch%d", tc.algo, tc.seed, tc.batch)
		d := &plantedDispatcher{staticW: 42, coeffW: plantedCoeffs(), noiseW: 0.3}
		cfg := Config{Algo: tc.algo, Batch: tc.batch, Budget: 30, Seed: tc.seed}
		if tc.algo == AlgoActive {
			cfg.TargetRSE = 1e-9
		}
		rep, err := (&Planner{Cfg: cfg, Dispatch: d}).Run(context.Background(), pool, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		ran := make([]string, len(d.ran))
		for i, k := range d.ran {
			ran[i] = strconv.Itoa(seqOf[k])
		}
		fit := "none"
		if rep.Fit != nil {
			fit = "p_static=" + strconv.FormatFloat(rep.Fit.PStaticW, 'g', -1, 64)
			comps := make([]string, 0, len(rep.Fit.CoeffW))
			for c := range rep.Fit.CoeffW {
				comps = append(comps, string(c))
			}
			sort.Strings(comps)
			for _, c := range comps {
				fit += " " + c + "=" + strconv.FormatFloat(rep.Fit.CoeffW[bench.Component(c)], 'g', -1, 64)
			}
		}
		if got := strings.Join(ran, " "); got != tc.ran {
			t.Errorf("%s dispatched\n  %s\nwant\n  %s", name, got, tc.ran)
		}
		if fit != tc.fit {
			t.Errorf("%s fit\n  %s\nwant\n  %s", name, fit, tc.fit)
		}
	}
}
