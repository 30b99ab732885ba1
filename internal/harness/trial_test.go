package harness

import (
	"context"
	"reflect"
	"strings"
	"testing"

	"energybench/internal/bench"
	"energybench/internal/meter"
)

// TestTrialKeyMatchesResultKey pins the resume contract: the key a planned
// trial computes must equal the key derived from the result its execution
// produces, for both solo and co-run configurations.
func TestTrialKeyMatchesResultKey(t *testing.T) {
	trials := tinyTrials(tinySpecs, 2)
	pair := trials[0]
	specB := tinyChase
	pair.SpecB, pair.ItersB = &specB, specB.Iters
	trials = append(trials, pair)
	for i := range trials {
		trials[i].Warmup, trials[i].MinReps, trials[i].MaxReps = 0, 1, 1
	}
	m := meter.NewMock(42)
	exec := &InProcess{Meter: m}
	for _, tr := range trials {
		res, err := exec.Execute(context.Background(), tr)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := ResultKey(res), tr.Key(m.Name()); got != want {
			t.Errorf("%s: ResultKey %q != Trial.Key %q", tr.Name(), got, want)
		}
	}
}

// parseKeyCases are single-host kernel results whose keys must round-trip
// through ParseKey; FuzzParseKey seeds from them too.
var parseKeyCases = []Result{
	{Spec: "int-alu", Threads: 1, Iters: 1000, Placement: PlaceNone, Meter: "mock"},
	{Spec: "fp-mac", Threads: 8, Iters: 250, Placement: PlaceScatter, Meter: "rapl"},
	{Spec: "chase-l1", SpecB: "chase-dram", Threads: 2, ThreadsB: 2,
		Iters: 1000, ItersB: 500, Placement: PlaceCompact, Meter: "mock"},
}

// TestParseKeyRoundTrip: ParseKey must invert ResultKey exactly — the store
// leans on it to answer filtered queries from key indexes alone.
func TestParseKeyRoundTrip(t *testing.T) {
	for _, r := range parseKeyCases {
		key := ResultKey(r)
		kf, ok := ParseKey(key)
		if !ok {
			t.Errorf("ParseKey(%q) failed", key)
			continue
		}
		want := KeyFields{Spec: r.Spec, SpecB: r.SpecB, Threads: r.Threads, ThreadsB: r.ThreadsB,
			Placement: r.Placement, Meter: r.Meter, Iters: r.Iters, ItersB: r.ItersB}
		if kf != want {
			t.Errorf("ParseKey(%q) = %+v, want %+v", key, kf, want)
		}
	}

	// Foreign formats must be rejected, not half-parsed.
	for _, bad := range []string{
		"", "free text", "a|b|c|d|e|f", "a|b|t1+1|d|e|f", "a|b|t1+1|d|e|i1",
		"a|b|x1+1|d|e|i1+1", "a|b|t1+1x|d|e|i1+1", "a|b|t1+1|d|e|i1+1|extra",
	} {
		if _, ok := ParseKey(bad); ok {
			t.Errorf("ParseKey(%q) = ok, want rejection", bad)
		}
	}
}

func TestFilterTrials(t *testing.T) {
	trials := tinyTrials(tinySpecs, 1, 2)
	kept, skipped := FilterTrials(trials, func(tr Trial) bool { return tr.Threads == 2 })
	if skipped != 2 || len(kept) != 2 {
		t.Fatalf("kept %d skipped %d, want 2/2", len(kept), skipped)
	}
	for _, tr := range kept {
		if tr.Threads != 2 {
			continue
		}
		t.Errorf("kept a trial the filter should skip: %+v", tr)
	}
	// Seq numbers survive filtering so progress can reference the full plan.
	if kept[0].Seq == 0 && kept[1].Seq == 1 && trials[1].Threads == 2 {
		t.Errorf("Seq renumbered after filtering: %d,%d", kept[0].Seq, kept[1].Seq)
	}
}

func TestRunPlanNilSinkAndErrors(t *testing.T) {
	trials := tinyTrials(tinySpecs, 1, 2)
	r := inProcess(meter.NewMock(42))
	if err := r.RunPlan(context.Background(), trials[:1], nil); err != nil {
		t.Errorf("nil sink must discard results, got %v", err)
	}
	if err := (&Scheduler{}).RunPlan(context.Background(), trials, nil); err == nil ||
		!strings.Contains(err.Error(), "no executor") {
		t.Errorf("scheduler without executor: err = %v", err)
	}
}

// loadRecorder is a scripted meter that also keeps the load Measure hands a
// load-aware meter.
type loadRecorder struct {
	scriptedMeter
	load map[string]float64
}

func (m *loadRecorder) SetLoad(load map[string]float64) { m.load = load }

// TestTrialActivityIsTheResultDesignRow: for a solo, a same-component co-run,
// a mixed co-run and an extern trial, the trial's activity vector is the one
// its measured result reports and the one a load-aware meter was handed,
// and its key is the result's key.
func TestTrialActivityIsTheResultDesignRow(t *testing.T) {
	intALU, dram := tinyInt, bench.Spec{Name: "tiny-dram", Component: bench.CompDRAM}
	stress := &ExternSpec{Workload: "stress", Exec: []string{"./stress"},
		Components: map[bench.Component]float64{bench.CompIntALU: 1, bench.CompDRAM: 0.25}}
	for _, tc := range []struct {
		trial Trial
		want  map[bench.Component]float64
	}{
		{Trial{Spec: intALU, Threads: 2, Iters: 100},
			map[bench.Component]float64{bench.CompIntALU: 2}},
		{Trial{Spec: intALU, SpecB: &intALU, Threads: 2, Iters: 100, ItersB: 100, Placement: PlaceCompact},
			map[bench.Component]float64{bench.CompIntALU: 4}},
		{Trial{Spec: intALU, SpecB: &dram, Threads: 3, Iters: 100, ItersB: 50, Placement: PlaceScatter},
			map[bench.Component]float64{bench.CompIntALU: 3, bench.CompDRAM: 3}},
		{Trial{Spec: bench.Spec{Name: "stress", Iters: 1}, Threads: 2, Iters: 1, Extern: stress},
			map[bench.Component]float64{bench.CompIntALU: 2, bench.CompDRAM: 0.5}},
	} {
		tr := tc.trial
		tr.MinReps, tr.MaxReps = 1, 1
		m := &loadRecorder{scriptedMeter: scriptedMeter{counter: constantDeltaCounter(1000)}}
		res, err := Measure(context.Background(), m, tr, func() (Region, error) {
			return Region{Release: func() error { return nil }, Abort: func() {}}, nil
		})
		if err != nil {
			t.Fatalf("%s: %v", tr.Name(), err)
		}
		act := tr.Activity()
		if !reflect.DeepEqual(act, tc.want) {
			t.Errorf("%s: Trial.Activity = %v, want %v", tr.Name(), act, tc.want)
		}
		if got := res.Activity(); !reflect.DeepEqual(got, act) {
			t.Errorf("%s: Result.Activity = %v, Trial.Activity = %v", tr.Name(), got, act)
		}
		load := map[bench.Component]float64{}
		for c, a := range m.load {
			load[bench.Component(c)] = a
		}
		if !reflect.DeepEqual(load, act) {
			t.Errorf("%s: meter load = %v, Trial.Activity = %v", tr.Name(), m.load, act)
		}
		if got, want := ResultKey(res), tr.Key(m.Name()); got != want {
			t.Errorf("%s: ResultKey %q != Trial.Key %q", tr.Name(), got, want)
		}
	}
}
