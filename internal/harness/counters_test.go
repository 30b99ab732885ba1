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
