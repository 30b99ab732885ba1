package campaign

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"energybench/internal/extwork"
	"energybench/internal/harness"
)

// externYAML mirrors testdata/extern-smoke.yaml: a kernel fit space plus one
// external workload with env/components block maps and swept threads.
const externYAML = `
name: extern-unit
meter: mock
mock_watts: 30
mock_model: "int-alu:5"
store: out.jsonl
spaces:
  - name: fit
    specs: [int-alu]
    threads: [1, 2]
    reps: 1
    warmup: 0
workloads:
  - name: stress
    build: [go, build, -o, bin/stress, ./cmd/stress]
    exec: [bin/stress, -ms, "60"]
    env:
      THREADS: "${THREADS}"
      MODE: fast
    components:
      int-alu: 1
      dram: 0.25
    expect_exit: 2
    timeout: 45s
    threads: [1, 2]
    reps: 2
    warmup: 1
`

func TestParseCampaignWorkloads(t *testing.T) {
	c, err := Parse([]byte(externYAML))
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != 1 {
		t.Fatalf("parsed %d workloads, want 1", len(c.Workloads))
	}
	w := c.Workloads[0]
	if w.Name != "stress" || len(w.Build) != 5 || len(w.Exec) != 3 {
		t.Errorf("workload shape: %+v", w)
	}
	// Numeric-looking argv elements stay strings when quoted.
	if w.Exec[2] != "60" {
		t.Errorf("exec[2] = %q, want the string \"60\"", w.Exec[2])
	}
	if w.Env["THREADS"] != "${THREADS}" || w.Env["MODE"] != "fast" {
		t.Errorf("env block map mis-decoded: %v", w.Env)
	}
	if w.Components["int-alu"] != 1 || w.Components["dram"] != 0.25 {
		t.Errorf("components block map mis-decoded: %v", w.Components)
	}
	if w.ExpectExit == nil || *w.ExpectExit != 2 || w.Timeout != "45s" {
		t.Errorf("expect_exit/timeout mis-decoded: %+v", w)
	}
}

func TestPlanAppendsExternTrials(t *testing.T) {
	c, err := Parse([]byte(externYAML))
	if err != nil {
		t.Fatal(err)
	}
	trials, err := c.Plan()
	if err != nil {
		t.Fatal(err)
	}
	// 2 kernel trials (int-alu × threads 1,2), then 2 extern trials.
	if len(trials) != 4 {
		t.Fatalf("planned %d trials, want 4", len(trials))
	}
	for i, tr := range trials {
		if tr.Seq != i {
			t.Errorf("trial %d has Seq %d; plans must be globally sequenced", i, tr.Seq)
		}
		if wantExtern := i >= 2; (tr.Extern != nil) != wantExtern {
			t.Errorf("trial %d extern = %v, want %v (workloads plan after spaces)", i, tr.Extern != nil, wantExtern)
		}
	}
	ext := trials[2]
	if ext.Extern.Workload != "stress" || ext.Extern.ExpectExit != 2 ||
		ext.Extern.Timeout != 45*time.Second {
		t.Errorf("extern spec mis-resolved: %+v", ext.Extern)
	}
	if ext.Extern.Components["int-alu"] != 1 {
		t.Errorf("components lost in resolution: %v", ext.Extern.Components)
	}
	if ext.MinReps != 2 || ext.MaxReps != 2 || ext.Warmup != 1 {
		t.Errorf("rep budget: min=%d max=%d warmup=%d, want 2/2/1", ext.MinReps, ext.MaxReps, ext.Warmup)
	}
	if ext.Spec.Name != "stress" || ext.Iters != 1 {
		t.Errorf("extern trial spec/iters = %q/%d, want stress/1", ext.Spec.Name, ext.Iters)
	}
	if got, want := ext.Key("mock"), "stress||t1+0|none|mock|i1+0|w:stress"; got != want {
		t.Errorf("extern trial key = %q, want %q", got, want)
	}
	if trials[3].Threads != 2 {
		t.Errorf("threads axis not swept: %+v", trials[3])
	}
}

func TestParseRejectsInvalidWorkloads(t *testing.T) {
	cases := []struct {
		name, src, wantErr string
	}{
		{"adaptive with workloads",
			"algo: active\nbudget: 4\nspaces:\n  - specs: [int-alu]\n    threads: [1, 2]\nworkloads:\n  - name: w\n    exec: [./w]\n",
			"workloads require algo all"},
		{"duplicate names",
			"spaces:\n  - specs: [int-alu]\nworkloads:\n  - name: w\n    exec: [./w]\n  - name: w\n    exec: [./w2]\n",
			"duplicate workload name"},
		{"missing exec",
			"spaces:\n  - specs: [int-alu]\nworkloads:\n  - name: w\n",
			"no exec command"},
		{"bad timeout",
			"spaces:\n  - specs: [int-alu]\nworkloads:\n  - name: w\n    exec: [./w]\n    timeout: forever\n",
			"bad timeout"},
		{"zero thread count",
			"spaces:\n  - specs: [int-alu]\nworkloads:\n  - name: w\n    exec: [./w]\n    threads: [0]\n",
			"thread count"},
		{"negative max cv",
			"spaces:\n  - specs: [int-alu]\nworkloads:\n  - name: w\n    exec: [./w]\n    max_cv: -1\n",
			"max cv must be non-negative and finite, got -1"},
		{"pipe in name",
			"spaces:\n  - specs: [int-alu]\nworkloads:\n  - name: \"a|b\"\n    exec: [./w]\n",
			"may not contain"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src))
			if err == nil {
				t.Fatalf("Parse accepted, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}

	// Workloads alone, with no kernel spaces, are a valid campaign.
	c, err := Parse([]byte("workloads:\n  - name: w\n    exec: [./w]\n"))
	if err != nil {
		t.Fatalf("workloads-only campaign rejected: %v", err)
	}
	trials, err := c.Plan()
	if err != nil || len(trials) != 1 || trials[0].Extern == nil {
		t.Errorf("workloads-only plan = %d trials, err %v", len(trials), err)
	}
}

// TestWorkloadTrialsRejectBadThresholds: a workload's own cv_target and
// max_cv must be non-negative and finite, as a kernel space's are; Go
// callers can set values a campaign file cannot carry.
func TestWorkloadTrialsRejectBadThresholds(t *testing.T) {
	f := func(v float64) *float64 { return &v }
	for _, tc := range []struct {
		name            string
		cvTarget, maxCV *float64
		wantErr         string
	}{
		{"NaN cv target", f(math.NaN()), nil, "cv target must be non-negative and finite, got NaN"},
		{"infinite cv target", f(math.Inf(1)), nil, "cv target must be non-negative and finite, got +Inf"},
		{"negative cv target", f(-0.1), nil, "cv target must be non-negative and finite, got -0.1"},
		{"NaN max cv", nil, f(math.NaN()), "max cv must be non-negative and finite, got NaN"},
		{"infinite max cv", nil, f(math.Inf(1)), "max cv must be non-negative and finite, got +Inf"},
		{"negative max cv", nil, f(-1), "max cv must be non-negative and finite, got -1"},
	} {
		w := extwork.Workload{Name: "app", Exec: []string{"./app"}, CVTarget: tc.cvTarget, MaxCV: tc.maxCV}
		_, err := workloadTrials(w)
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
		}
	}
	w := extwork.Workload{Name: "app", Exec: []string{"./app"}, CVTarget: f(0), MaxCV: f(0)}
	if trials, err := workloadTrials(w); err != nil || len(trials) != 1 {
		t.Errorf("explicit zeros: %d trials, err %v; want one trial", len(trials), err)
	}
}

// TestGridDefaultsPerKind: spaces and workloads expand through one grid but
// keep their own defaults, and a space's reps: 0 means the default while a
// workload's explicit reps: 0 is an error.
func TestGridDefaultsPerKind(t *testing.T) {
	grid := func(trials []harness.Trial, err error) (out []string) {
		if err != nil {
			t.Fatal(err)
		}
		for _, tr := range trials {
			out = append(out, fmt.Sprintf("#%d t%d %s warmup %d reps %d/%d cv %v max %v",
				tr.Seq, tr.Threads, tr.Placement, tr.Warmup, tr.MinReps, tr.MaxReps, tr.CVTarget, tr.MaxCV))
		}
		return out
	}
	space := grid((&SpaceConfig{Specs: []string{"int-alu"}, Reps: 0}).Trials())
	if want := []string{"#0 t1 none warmup 1 reps 3/3 cv 0.05 max 0.2", "#1 t2 none warmup 1 reps 3/3 cv 0.05 max 0.2"}; !reflect.DeepEqual(space, want) {
		t.Errorf("space defaults = %q, want %q", space, want)
	}
	work := grid(workloadTrials(extwork.Workload{Name: "app", Exec: []string{"./app"}}))
	if want := []string{"#0 t1 none warmup 0 reps 1/1 cv 0 max 0"}; !reflect.DeepEqual(work, want) {
		t.Errorf("workload defaults = %q, want %q", work, want)
	}
	zero := 0
	_, err := workloadTrials(extwork.Workload{Name: "app", Exec: []string{"./app"}, Reps: &zero})
	if err == nil || err.Error() != "min reps must be positive, got 0" {
		t.Errorf("workload reps: 0: err = %v, want the budget error", err)
	}
}
