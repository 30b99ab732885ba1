package model

import (
	"fmt"

	"energybench/internal/bench"
	"energybench/internal/harness"
)

// Activity-source names shared by the CLI and campaign layers: how fit
// observations derive their per-component activity factors.
const (
	// ActivityNominal labels each observation with its workload: activity =
	// thread count on the kernel's component. Always available; blind to
	// what the hardware actually did.
	ActivityNominal = "nominal"
	// ActivityCounters derives activity from measured hardware event rates
	// (internal/perf), the paper's counter-based methodology.
	ActivityCounters = "counters"
)

// RateScale converts a measured event rate (events/second) into an activity
// factor: activity = rate / RateScale, i.e. billions of events per second.
// A GHz-class core saturating a component therefore scores activity of a
// few units per thread — the same numeric range as nominal thread counts,
// so fitted coefficients stay comparable across the two activity sources.
const RateScale = 1e9

// characteristicEvents maps each component to the hardware events whose
// rate drives that component's dynamic power, in preference order. The
// observation builder uses the first event the result actually counted:
//
//   - Compute components (and L1 hits) are driven by retired instructions.
//   - L2 activity is L1D misses — every L1 miss is an L2 access.
//   - L3 activity is also L1D-miss traffic (an L2-resident set misses only
//     L1), with LLC references as the fallback proxy.
//   - DRAM activity is LLC misses, each one a memory transaction.
var characteristicEvents = map[bench.Component][]string{
	bench.CompIntALU: {"instructions"},
	bench.CompFPU:    {"instructions"},
	bench.CompMixed:  {"instructions"},
	bench.CompL1:     {"l1d-loads", "instructions"},
	bench.CompL2:     {"l1d-misses", "cache-refs"},
	bench.CompL3:     {"l1d-misses", "cache-refs"},
	bench.CompDRAM:   {"llc-misses"},
}

// componentActivity derives one co-run group's activity factor from its
// measured rates.
func componentActivity(c *harness.Counters, comp bench.Component, group int) (float64, error) {
	prefs, ok := characteristicEvents[comp]
	if !ok {
		// Unknown component (e.g. a future kernel): fall back to retired
		// instructions, the universal work proxy.
		prefs = []string{"instructions"}
	}
	for _, ev := range prefs {
		if rate, ok := c.TotalRateHz(ev, group); ok {
			return rate / RateScale, nil
		}
	}
	return 0, fmt.Errorf("model: component %s needs one of %v but the result only counted %v (re-run with those events in --counters)",
		comp, prefs, countedEvents(c))
}

func countedEvents(c *harness.Counters) []string {
	names := make([]string, len(c.Events))
	for i, e := range c.Events {
		names[i] = e.Event
	}
	return names
}

// checkSource rejects an activity source other than nominal or counters.
func checkSource(source string) error {
	switch source {
	case "", ActivityNominal, ActivityCounters:
		return nil
	}
	return fmt.Errorf("model: unknown activity source %q (want %s|%s)", source, ActivityNominal, ActivityCounters)
}

// designRow is a result's activity vector under the given source, in the
// units the fit regresses on; it serves kernel and workload results alike.
// Nominal is harness.Result.Activity. Counters measures how hard the same
// components were driven: each one's characteristic event rate over
// RateScale, per co-run group for a kernel and over the declared components
// for a workload — the declaration picks which components a workload
// exercises; the hardware says how hard.
func designRow(r harness.Result, source string) (map[bench.Component]float64, error) {
	if err := checkSource(source); err != nil {
		return nil, err
	}
	if r.Workload != "" && len(r.WorkloadComponents) == 0 {
		return nil, fmt.Errorf("workload declares no components (add components: to its campaign entry)")
	}
	if source != ActivityCounters {
		return r.Activity(), nil
	}
	if r.Counters == nil {
		return nil, fmt.Errorf("result carries no counters (re-run the workload with counters enabled)")
	}
	type side struct {
		comp  bench.Component
		group int
	}
	var sides []side
	switch {
	case r.Workload != "":
		for c := range r.WorkloadComponents {
			sides = append(sides, side{c, 0})
		}
	case r.IsCoRun():
		sides = []side{{r.Component, 0}, {r.ComponentB, 1}}
	default:
		sides = []side{{r.Component, 0}}
	}
	act := map[bench.Component]float64{}
	for _, s := range sides {
		a, err := componentActivity(r.Counters, s.comp, s.group)
		if err != nil {
			return nil, err
		}
		act[s.comp] += a
	}
	return act, nil
}

// observations builds the fit's observations from a store's results under
// the activity source: one per micro-benchmark result, with its label and
// design row. External-workload results are skipped: they are what the
// fitted model is validated *against* (Validate), never part of the design
// it is fitted on. Under counters, results without counters are skipped and
// counted, and fitting proceeds on the measured subset; it is an error when
// none carries counters or a counted result lacks the events its component
// needs.
func observations(results []harness.Result, source string) (obs []Observation, skipped int, err error) {
	if err := checkSource(source); err != nil {
		return nil, 0, err
	}
	obs = make([]Observation, 0, len(results))
	for _, r := range results {
		if r.Workload != "" {
			continue
		}
		if source == ActivityCounters && r.Counters == nil {
			skipped++
			continue
		}
		act, err := designRow(r, source)
		if err != nil {
			return nil, skipped, fmt.Errorf("%s: %w", label(r), err)
		}
		obs = append(obs, Observation{Label: label(r), PowerW: r.PowerW.Mean, Activity: act})
	}
	if source == ActivityCounters && len(obs) == 0 {
		return nil, skipped, fmt.Errorf("model: no stored results carry measured counters (re-run the sweep with --counters)")
	}
	return obs, skipped, nil
}

// label names a result's configuration in residuals, validation rows,
// roofline points and errors: "spec/tN/placement", or
// "specA+specB/tN+M/placement" for a co-run, with an external workload's
// name in place of the spec.
func label(r harness.Result) string {
	if r.IsCoRun() {
		return fmt.Sprintf("%s+%s/t%d+%d/%s", r.Spec, r.SpecB, r.Threads, r.ThreadsB, r.Placement)
	}
	name := r.Spec
	if r.Workload != "" {
		name = r.Workload
	}
	return fmt.Sprintf("%s/t%d/%s", name, r.Threads, r.Placement)
}
