package campaign

import (
	"strings"
	"testing"
	"time"
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
