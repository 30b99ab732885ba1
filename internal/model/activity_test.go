package model

import (
	"math"
	"strings"
	"testing"

	"energybench/internal/bench"
	"energybench/internal/harness"
	"energybench/internal/stats"
)

// counterResult fabricates a measured result: spec/component/threads plus a
// counters block with the given per-event *total* rates (Hz, already summed
// over threads, all in group 0).
func counterResult(spec string, comp bench.Component, threads int, powerW float64, rates map[string]float64) harness.Result {
	c := &harness.Counters{Backend: "mock", Reps: 1}
	th := harness.CounterThread{CPU: -1}
	for ev, rate := range rates {
		c.Events = append(c.Events, harness.CounterEvent{Event: ev, RateHzMean: rate, TotalMean: rate})
		th.RateHzMean = append(th.RateHzMean, rate)
		th.TotalMean = append(th.TotalMean, rate)
	}
	c.Threads = []harness.CounterThread{th}
	return harness.Result{
		Spec: spec, Component: comp, Threads: threads, Iters: 1000,
		Placement: harness.PlaceNone, Meter: "mock",
		PowerW:   stats.Summary{N: 1, Mean: powerW},
		Counters: c,
	}
}

// TestFromResultsCountersPlantedCoefficients is the pipeline's ground-truth
// test: counter-source observations built from planted event rates, with powers generated
// by P = 10 + 2·act(int-alu) + 5·act(dram), must hand FitPower a design it
// solves back to exactly those coefficients.
func TestFromResultsCountersPlantedCoefficients(t *testing.T) {
	const pStatic, aInt, aDram = 10.0, 2.0, 5.0
	mk := func(spec string, comp bench.Component, threads int, rates map[string]float64) harness.Result {
		var power float64 = pStatic
		switch comp {
		case bench.CompIntALU:
			power += aInt * rates["instructions"] / RateScale
		case bench.CompDRAM:
			power += aDram * rates["llc-misses"] / RateScale
		}
		return counterResult(spec, comp, threads, power, rates)
	}
	results := []harness.Result{
		mk("int-alu", bench.CompIntALU, 1, map[string]float64{"instructions": 3.2e9, "llc-misses": 1e3}),
		mk("int-alu", bench.CompIntALU, 2, map[string]float64{"instructions": 6.4e9, "llc-misses": 2e3}),
		mk("chase-dram", bench.CompDRAM, 1, map[string]float64{"instructions": 6e7, "llc-misses": 5.5e7}),
		mk("chase-dram", bench.CompDRAM, 2, map[string]float64{"instructions": 1.2e8, "llc-misses": 1.1e8}),
	}
	// The DRAM observations' activity comes from llc-misses, not the (also
	// counted) instructions — that is the characteristic-event mapping.
	obs, skipped, err := observations(results, ActivityCounters)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 0 || len(obs) != 4 {
		t.Fatalf("got %d observations (%d skipped), want 4 (0 skipped)", len(obs), skipped)
	}
	for _, o := range obs {
		if len(o.Activity) != 1 {
			t.Errorf("%s: activity = %v, want exactly one component", o.Label, o.Activity)
		}
	}
	if got := obs[0].Activity[bench.CompIntALU]; math.Abs(got-3.2) > 1e-12 {
		t.Errorf("int-alu t1 activity = %v, want 3.2 (3.2e9 instructions/s / 1e9)", got)
	}
	if got := obs[2].Activity[bench.CompDRAM]; math.Abs(got-0.055) > 1e-12 {
		t.Errorf("dram t1 activity = %v, want 0.055 (5.5e7 llc-misses/s / 1e9)", got)
	}

	fit, err := FitPower(obs)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(fit.PStaticW-pStatic) > 1e-6 {
		t.Errorf("P_static = %v, want %v", fit.PStaticW, pStatic)
	}
	if got := fit.CoeffW[bench.CompIntALU]; math.Abs(got-aInt) > 1e-6 {
		t.Errorf("int-alu coefficient = %v, want %v", got, aInt)
	}
	if got := fit.CoeffW[bench.CompDRAM]; math.Abs(got-aDram) > 1e-6 {
		t.Errorf("dram coefficient = %v, want %v", got, aDram)
	}
	if fit.R2 < 1-1e-9 {
		t.Errorf("R² = %v, want 1 on noiseless planted data", fit.R2)
	}
}

// TestFromResultsCountersCoRunSplitsGroups: a co-run result's counter-source
// design row must be a two-component activity vector, each side derived from its own group's
// threads.
func TestFromResultsCountersCoRunSplitsGroups(t *testing.T) {
	r := harness.Result{
		Spec: "int-alu", Component: bench.CompIntALU,
		SpecB: "chase-dram", ComponentB: bench.CompDRAM,
		Threads: 1, ThreadsB: 1, Iters: 1000, ItersB: 100,
		Placement: harness.PlaceCompact, Meter: "mock",
		PowerW: stats.Summary{N: 1, Mean: 30},
		Counters: &harness.Counters{
			Backend: "mock",
			Events: []harness.CounterEvent{
				{Event: "instructions", RateHzMean: 3.26e9},
				{Event: "llc-misses", RateHzMean: 5.5001e7},
			},
			Threads: []harness.CounterThread{
				{CPU: 0, Group: 0, RateHzMean: []float64{3.2e9, 1e3}},
				{CPU: 1, Group: 1, RateHzMean: []float64{6e7, 5.5e7}},
			},
			Reps: 1,
		},
	}
	obs, _, err := observations([]harness.Result{r}, ActivityCounters)
	if err != nil {
		t.Fatal(err)
	}
	act := obs[0].Activity
	if got := act[bench.CompIntALU]; math.Abs(got-3.2) > 1e-12 {
		t.Errorf("A-side activity = %v, want 3.2 (group 0 instructions only)", got)
	}
	if got := act[bench.CompDRAM]; math.Abs(got-0.055) > 1e-12 {
		t.Errorf("B-side activity = %v, want 0.055 (group 1 llc-misses only)", got)
	}
	if !strings.Contains(obs[0].Label, "int-alu+chase-dram") {
		t.Errorf("label %q should name both specs", obs[0].Label)
	}
}

// TestFromResultsCountersSkipsAndErrors: under the counter source, results
// without counters are skipped (the store may mix counter and pre-counter sweeps); an all-nominal
// store is an error; a counted result missing its component's
// characteristic events is an error naming what to re-run.
func TestFromResultsCountersSkipsAndErrors(t *testing.T) {
	plain := harness.Result{
		Spec: "int-alu", Component: bench.CompIntALU, Threads: 1,
		Placement: harness.PlaceNone, Meter: "mock",
		PowerW: stats.Summary{N: 1, Mean: 12},
	}
	counted := counterResult("int-alu", bench.CompIntALU, 1, 16.4,
		map[string]float64{"instructions": 3.2e9})

	obs, skipped, err := observations([]harness.Result{plain, counted}, ActivityCounters)
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 || len(obs) != 1 {
		t.Errorf("got %d observations (%d skipped), want 1 and 1", len(obs), skipped)
	}

	if _, _, err := observations([]harness.Result{plain}, ActivityCounters); err == nil {
		t.Error("an all-nominal result set should error, not fit an empty design")
	}

	// A DRAM result that only counted cycles cannot provide DRAM activity.
	bad := counterResult("chase-dram", bench.CompDRAM, 1, 20, map[string]float64{"cycles": 2.5e9})
	_, _, err = observations([]harness.Result{bad}, ActivityCounters)
	if err == nil || !strings.Contains(err.Error(), "llc-misses") {
		t.Errorf("err = %v, want a complaint naming the missing llc-misses event", err)
	}
}

// TestFromResultsCountersFallbackEvent: when the preferred characteristic
// event is absent the builder walks the preference list (L3 falls back from
// l1d-misses to cache-refs).
func TestFromResultsCountersFallbackEvent(t *testing.T) {
	r := counterResult("chase-l3", bench.CompL3, 1, 20, map[string]float64{"cache-refs": 3.3e8})
	obs, _, err := observations([]harness.Result{r}, ActivityCounters)
	if err != nil {
		t.Fatal(err)
	}
	if got := obs[0].Activity[bench.CompL3]; math.Abs(got-0.33) > 1e-12 {
		t.Errorf("L3 activity = %v, want 0.33 via the cache-refs fallback", got)
	}
}
