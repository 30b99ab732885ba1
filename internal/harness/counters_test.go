package harness

import (
	"context"
	"fmt"
	"math"
	"strings"
	"testing"

	"energybench/internal/bench"
	"energybench/internal/meter"
	"energybench/internal/perf"
)

func counterTrial(threads int, events ...string) Trial {
	spec, _ := bench.Lookup("int-alu")
	spec.Iters = 20_000
	return Trial{
		Spec: spec, Threads: threads, Placement: PlaceNone,
		Iters: spec.Iters, MinReps: 2, MaxReps: 2,
		Counters: &perf.Spec{Backend: perf.BackendMock, Events: events},
	}
}

// TestInProcessCollectsCounters runs a mock-counter trial end to end: the
// result must carry scaled counts whose per-thread rates reproduce the mock
// backend's planted table and whose totals sum across threads.
func TestInProcessCollectsCounters(t *testing.T) {
	e := &InProcess{Meter: meter.NewMock(10)}
	trial := counterTrial(2, "instructions", "llc-misses")
	res, err := e.Execute(context.Background(), trial)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c == nil {
		t.Fatal("result has no counters despite a counter spec on the trial")
	}
	if c.Backend != perf.BackendMock {
		t.Errorf("backend = %q, want mock", c.Backend)
	}
	if c.Reps != 2 {
		t.Errorf("aggregated reps = %d, want 2", c.Reps)
	}
	if len(c.Events) != 2 || c.Events[0].Event != "instructions" || c.Events[1].Event != "llc-misses" {
		t.Fatalf("events = %+v, want instructions, llc-misses", c.Events)
	}
	if len(c.Threads) != 2 {
		t.Fatalf("got %d thread entries, want 2", len(c.Threads))
	}
	// The mock counts exactly rate × elapsed per thread, so each thread's
	// rate is the planted rate and the event aggregate is threads × rate.
	planted := perf.MockRate("int-alu", "instructions")
	for i, th := range c.Threads {
		if got := th.RateHzMean[0]; math.Abs(got-planted) > planted*0.05 {
			t.Errorf("thread %d instruction rate = %v, want ~%v", i, got, planted)
		}
		if th.CPU != -1 {
			t.Errorf("thread %d CPU = %d, want -1 for an unpinned trial", i, th.CPU)
		}
	}
	if got := c.Events[0].RateHzMean; math.Abs(got-2*planted) > 2*planted*0.05 {
		t.Errorf("aggregate instruction rate = %v, want ~%v (2 threads)", got, 2*planted)
	}
	if c.Events[0].TotalMean <= 0 {
		t.Error("aggregate instruction total should be positive")
	}
	if c.Events[0].Multiplexed {
		t.Error("unmultiplexed mock counts reported Multiplexed")
	}
}

// TestInProcessCoRunCounterGroups: co-run counters must attribute each
// worker thread to its spec group with that spec's component rates, so the
// model can build a two-component activity vector from one trial.
func TestInProcessCoRunCounterGroups(t *testing.T) {
	specA, _ := bench.Lookup("int-alu")
	specB, _ := bench.Lookup("chase-dram")
	specA.Iters, specB.Iters = 20_000, 2_000
	trial := Trial{
		Spec: specA, SpecB: &specB, Threads: 1, Placement: PlaceNone,
		Iters: specA.Iters, ItersB: specB.Iters, MinReps: 1, MaxReps: 1,
		Counters: &perf.Spec{Backend: perf.BackendMock, Events: []string{"instructions", "llc-misses"}},
	}
	e := &InProcess{Meter: meter.NewMock(10)}
	res, err := e.Execute(context.Background(), trial)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c == nil {
		t.Fatal("no counters on co-run result")
	}
	if len(c.Threads) != 2 {
		t.Fatalf("got %d thread entries, want 2 (one per co-run unit)", len(c.Threads))
	}
	groups := map[int]bool{}
	for _, th := range c.Threads {
		groups[th.Group] = true
	}
	if !groups[0] || !groups[1] {
		t.Fatalf("thread groups = %+v, want one thread in group 0 and one in group 1", c.Threads)
	}
	// Group 0 ran int-alu (high instruction rate); group 1 ran the DRAM
	// chase (high LLC miss rate). TotalRateHz must separate them.
	aInstr, ok := c.TotalRateHz("instructions", 0)
	if !ok {
		t.Fatal("instructions not counted for group 0")
	}
	bMiss, ok := c.TotalRateHz("llc-misses", 1)
	if !ok {
		t.Fatal("llc-misses not counted for group 1")
	}
	wantA := perf.MockRate("int-alu", "instructions")
	wantB := perf.MockRate("dram", "llc-misses")
	if math.Abs(aInstr-wantA) > wantA*0.05 {
		t.Errorf("group A instruction rate = %v, want ~%v", aInstr, wantA)
	}
	if math.Abs(bMiss-wantB) > wantB*0.05 {
		t.Errorf("group B llc-miss rate = %v, want ~%v", bMiss, wantB)
	}
}

// scriptedActivity is an ActivityMeter whose sessions report scripted
// counts: the session a unit opens under workload hint h reads
// counts(h, r) at the Stop of its repetition r.
type scriptedActivity struct {
	counts func(hint string, rep int) perf.Counts
}

func (scriptedActivity) Name() string     { return "scripted" }
func (scriptedActivity) Events() []string { return []string{"instructions", "llc-misses"} }
func (m scriptedActivity) OpenThread(_ int, hint string) (perf.Session, error) {
	return &scriptedSession{hint: hint, counts: m.counts}, nil
}
func (scriptedActivity) OpenTask(int, int, string) (perf.Session, error) {
	return nil, fmt.Errorf("unused")
}

type scriptedSession struct {
	hint   string
	rep    int
	counts func(string, int) perf.Counts
}

func (s *scriptedSession) Start() error { return nil }
func (s *scriptedSession) Stop() (perf.Counts, error) {
	s.rep++
	return s.counts(s.hint, s.rep-1), nil
}
func (s *scriptedSession) Poll() (perf.Counts, error) { return s.counts(s.hint, s.rep), nil }
func (s *scriptedSession) Close() error               { return nil }

// TestInProcessCountersCoverKeptReps: counters aggregate the repetitions
// Measure kept, like every other summary. Energies 1, 1 and 5 J make
// max_cv drop the third repetition, whose scripted counts dwarf the
// others'; each thread's and event's means must be the first two
// repetitions' means, a rate being each count over its own enabled time.
func TestInProcessCountersCoverKeptReps(t *testing.T) {
	base := map[string]float64{string(tinyInt.Component): 1e6, string(tinyChase.Component): 3e4}
	scaled := func(hint string, event, rep int) float64 {
		mult := float64(rep + 1)
		if rep == 2 {
			mult = 50
		}
		return base[hint] * float64(event+1) * mult
	}
	enabledNS := func(rep int) uint64 { return uint64(rep+2) * 1e6 }
	e := &InProcess{
		Meter: &scriptedMeter{counter: sampleSequenceCounter([]uint64{1e6, 1e6, 5e6})},
		newActivity: func(perf.Spec) (perf.ActivityMeter, error) {
			return scriptedActivity{counts: func(hint string, rep int) perf.Counts {
				var c perf.Counts
				for i := range 2 {
					c.Values = append(c.Values, perf.EventCount{Scaled: scaled(hint, i, rep),
						TimeEnabledNS: enabledNS(rep), TimeRunningNS: enabledNS(rep)})
				}
				return c
			}}, nil
		},
	}
	trial := Trial{Spec: tinyInt, SpecB: &tinyChase, Threads: 1, Placement: PlaceNone,
		Iters: 1, ItersB: 1, MinReps: 3, MaxReps: 3, MaxCV: 0.2,
		Counters: &perf.Spec{Backend: "scripted"}}
	res, err := e.Execute(context.Background(), trial)
	if err != nil {
		t.Fatal(err)
	}
	c := res.Counters
	if c == nil || res.EnergyJ.N != 2 || c.Reps != res.EnergyJ.N {
		t.Fatalf("energy N %d, counters %+v; want counters over the 2 kept repetitions", res.EnergyJ.N, c)
	}
	if len(c.Threads) != 2 {
		t.Fatalf("got %d threads, want one per co-run unit", len(c.Threads))
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-12*math.Abs(want) }
	for i, ev := range c.Events {
		var total, rate float64
		for _, th := range c.Threads {
			hint := string(tinyInt.Component)
			if th.Group == 1 {
				hint = string(tinyChase.Component)
			}
			var wantTotal, wantRate float64
			for rep := range 2 {
				wantTotal += scaled(hint, i, rep) / 2
				wantRate += scaled(hint, i, rep) / (float64(enabledNS(rep)) / 1e9) / 2
			}
			if !near(th.TotalMean[i], wantTotal) || !near(th.RateHzMean[i], wantRate) {
				t.Errorf("group %d %s: total %v, rate %v; want %v, %v", th.Group, ev.Event, th.TotalMean[i], th.RateHzMean[i], wantTotal, wantRate)
			}
			total += wantTotal
			rate += wantRate
		}
		if !near(ev.TotalMean, total) || !near(ev.RateHzMean, rate) {
			t.Errorf("%s: total %v, rate %v; want %v, %v", ev.Event, ev.TotalMean, ev.RateHzMean, total, rate)
		}
	}
}

// TestInProcessCounterOpenFailureFailsTrial: a counter session that cannot
// open must fail the repetition (the activity vector would be a lie), and
// the error must surface through Execute.
func TestInProcessCounterOpenFailureFailsTrial(t *testing.T) {
	e := &InProcess{
		Meter: meter.NewMock(10),
		newActivity: func(perf.Spec) (perf.ActivityMeter, error) {
			return failingActivityMeter{}, nil
		},
	}
	_, err := e.Execute(context.Background(), counterTrial(1, "instructions"))
	if err == nil || !strings.Contains(err.Error(), "no PMU access") {
		t.Fatalf("err = %v, want the counter open failure", err)
	}
}

// TestInProcessCounterConstructionFailureFailsTrial: an unconstructible
// activity meter (e.g. perf backend on a host without access) fails the
// trial before any repetition runs.
func TestInProcessCounterConstructionFailureFailsTrial(t *testing.T) {
	e := &InProcess{
		Meter: meter.NewMock(10),
		newActivity: func(perf.Spec) (perf.ActivityMeter, error) {
			return nil, fmt.Errorf("paranoid kernel")
		},
	}
	_, err := e.Execute(context.Background(), counterTrial(1, "instructions"))
	if err == nil || !strings.Contains(err.Error(), "paranoid kernel") {
		t.Fatalf("err = %v, want the activity meter construction failure", err)
	}
}

// TestNoCountersMeansNoCounters: trials without a counter spec keep the
// pre-counter result shape.
func TestNoCountersMeansNoCounters(t *testing.T) {
	spec, _ := bench.Lookup("int-alu")
	spec.Iters = 10_000
	e := &InProcess{Meter: meter.NewMock(10)}
	res, err := e.Execute(context.Background(), Trial{
		Spec: spec, Threads: 1, Placement: PlaceNone,
		Iters: spec.Iters, MinReps: 1, MaxReps: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Counters != nil {
		t.Errorf("counters = %+v on a trial with no counter spec, want nil", res.Counters)
	}
}

// failingActivityMeter is an ActivityMeter whose sessions never open.
type failingActivityMeter struct{}

func (failingActivityMeter) Name() string     { return "failing" }
func (failingActivityMeter) Events() []string { return []string{"instructions"} }
func (failingActivityMeter) OpenThread(int, string) (perf.Session, error) {
	return nil, fmt.Errorf("no PMU access")
}
func (failingActivityMeter) OpenTask(int, int, string) (perf.Session, error) {
	return nil, fmt.Errorf("no PMU access")
}
