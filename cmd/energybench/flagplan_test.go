package main

import (
	"bytes"
	"context"
	"encoding/json"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"energybench/internal/campaign"
)

// flagPlanCases are the run and list flag sets the cmd tests, the Makefile,
// the CI workflow, the verify skill, the README and docs/ARCHITECTURE.md
// drive, deduplicated. {db} stands for a fresh single-file store path and
// {dir} for a fresh sharded store directory. Flag sets their sources use to
// provoke an error are pinned by the tests that hold them, not here.
var flagPlanCases = []struct {
	name string
	args []string
}{
	{"list-catalog", []string{"list"}},
	{"list-sizing", []string{"list", "--threads=1,2,4", "--placement=none,compact"}},
	{"run-mock-end-to-end", []string{"run", "--meter=mock", "--reps=3", "--warmup=1", "--threads=1,2", "--placement=none", "--iter-scale=0.01"}},
	{"run-spec-filter", []string{"run", "--specs=int-alu", "--threads=1", "--reps=2", "--warmup=0", "--iter-scale=0.01"}},
	{"run-resume-base", []string{"run", "--specs=int-alu", "--threads=1,2", "--reps=1", "--warmup=0", "--iter-scale=0.01", "--store={db}"}},
	{"run-resume", []string{"run", "--specs=int-alu", "--threads=1,2", "--reps=1", "--warmup=0", "--iter-scale=0.01", "--store={db}", "--resume"}},
	{"run-resume-widened", []string{"run", "--specs=int-alu", "--threads=1,2,4", "--reps=1", "--warmup=0", "--iter-scale=0.01", "--store={db}", "--resume"}},
	{"run-progress", []string{"run", "--specs=int-alu", "--threads=1,2", "--reps=1", "--warmup=0", "--iter-scale=0.01", "--store={db}", "--progress"}},
	{"run-dry-run-adaptive-reps", []string{"run", "--dry-run", "--specs=int-alu,chase-l1", "--threads=1,2", "--reps=2", "--max-reps=8"}},
	{"run-store-analyze", []string{"run", "--meter=mock", "--specs=int-alu,chase-l1", "--threads=1,2", "--reps=2", "--warmup=1", "--iter-scale=0.5"}},
	{"run-corun-compare", []string{"run", "--meter=mock", "--specs=int-alu,chase-l1", "--corun=int-alu+chase-l1", "--threads=1", "--reps=2", "--warmup=0", "--iter-scale=0.2", "--store={db}"}},
	{"run-one-config", []string{"run", "--specs=int-alu", "--threads=1", "--reps=1", "--warmup=0", "--iter-scale=0.01", "--store={db}"}},
	{"run-planner-active", []string{"run", "--specs=int-alu,fp-mac,chase-l1,chase-dram", "--threads=1,2,3,4,5,6", "--mock-model=int-alu:2,fpu:5,l1:1.5,dram:8", "--mock-noise=0.3", "--reps=1", "--warmup=0", "--iter-scale=0.01", "--store={db}", "--algo=active"}},
	{"run-planner-budget", []string{"run", "--specs=int-alu,fp-mac,chase-l1,chase-dram", "--threads=1,2,3,4,5,6", "--mock-model=int-alu:2,fpu:5,l1:1.5,dram:8", "--mock-noise=0.3", "--reps=1", "--warmup=0", "--iter-scale=0.01", "--store={db}", "--algo=active", "--batch=5", "--budget=5"}},
	{"run-planner-resume", []string{"run", "--specs=int-alu,fp-mac,chase-l1,chase-dram", "--threads=1,2,3,4,5,6", "--mock-model=int-alu:2,fpu:5,l1:1.5,dram:8", "--mock-noise=0.3", "--reps=1", "--warmup=0", "--iter-scale=0.01", "--store={db}", "--algo=active", "--batch=6", "--resume"}},
	{"run-sample-interval", []string{"run", "--meter=mock", "--mock-watts=42", "--specs=int-alu", "--threads=1", "--reps=2", "--warmup=0", "--iter-scale=10", "--sample-interval=10ms", "--store={db}"}},
	{"run-serial-keys", []string{"run", "--meter=mock", "--store={db}", "--specs=int-alu,fp-mac", "--corun=int-alu+fp-mac", "--threads=1,2", "--reps=1", "--warmup=0", "--iter-scale=0.01"}},
	{"run-subprocess-counters", []string{"run", "--meter=mock", "--executor=subprocess", "--specs=int-alu,chase-dram", "--threads=1,2", "--reps=2", "--warmup=0", "--iter-scale=0.02", "--counters=default", "--counter-backend=mock", "--store={db}"}},
	{"run-two-specs-store", []string{"run", "--specs=int-alu,chase-l1", "--threads=1,2", "--reps=1", "--warmup=0", "--iter-scale=0.01", "--store={db}"}},
	{"run-two-specs-resume", []string{"run", "--specs=int-alu,chase-l1", "--threads=1,2", "--reps=1", "--warmup=0", "--iter-scale=0.01", "--store={db}", "--resume"}},
	{"run-sharded-store", []string{"run", "--specs=int-alu,chase-l1", "--threads=1,2", "--reps=1", "--warmup=0", "--iter-scale=0.01", "--store={dir}"}},
	{"smoke-counters", []string{"run", "--specs=int-alu,chase-dram", "--threads=1,2", "--reps=2", "--warmup=0", "--iter-scale=0.05", "--counters=default", "--counter-backend=mock", "--store={db}"}},
	{"smoke-sampling", []string{"run", "--meter=mock", "--mock-watts=42", "--mock-schedule=0.1:20", "--specs=int-alu", "--threads=1", "--reps=2", "--warmup=0", "--iter-scale=60", "--sample-interval=10ms", "--store={db}"}},
	{"skill-full-sweep", []string{"run", "--meter=mock", "--reps=3", "--threads=1,2", "--iter-scale=0.02", "--progress"}},
	{"skill-pipeline", []string{"run", "--meter=mock", "--specs=int-alu,chase-l1", "--corun=int-alu+chase-l1", "--threads=1,2", "--iter-scale=0.05", "--store={db}"}},
	{"skill-pipeline-resume", []string{"run", "--meter=mock", "--specs=int-alu,chase-l1", "--corun=int-alu+chase-l1", "--threads=1,2", "--iter-scale=0.05", "--store={db}", "--resume"}},
	{"skill-subprocess-parallel", []string{"run", "--meter=mock", "--executor=subprocess", "--parallel=2", "--specs=int-alu,chase-l1", "--threads=1,2", "--iter-scale=0.05", "--progress"}},
	{"readme-quick-start", []string{"run", "--meter=mock", "--reps=3", "--threads=1,2"}},
	{"readme-rapl", []string{"run", "--meter=rapl", "--threads=2,4,8", "--placement=compact,scatter", "--min-reps=5", "--max-reps=20", "--cv-target=0.03", "--store={db}", "--resume", "--progress"}},
	{"architecture-counters", []string{"run", "--counters=default", "--specs=int-alu,chase-dram", "--threads=1,2", "--store={db}"}},
}

// TestFlagPlansGolden pins what every documented run/list flag set plans: each
// runs as a dry run against fresh store paths, and its printed output,
// compacted to one line per case, must match the golden byte for byte, so a
// change to how flags become a sweep cannot silently move a trial, a key or a
// repetition budget.
func TestFlagPlansGolden(t *testing.T) {
	var got bytes.Buffer
	for _, tc := range flagPlanCases {
		dir := t.TempDir()
		r := strings.NewReplacer("{db}", filepath.Join(dir, "db.jsonl"), "{dir}", filepath.Join(dir, "store"))
		args := make([]string, len(tc.args))
		for i, a := range tc.args {
			args[i] = r.Replace(a)
		}
		if args[0] == "run" && !slices.Contains(args, "--dry-run") {
			args = append(args, "--dry-run")
		}
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), args, &stdout, &stderr); err != nil {
			t.Fatalf("%s: %v\nstderr: %s", tc.name, err, stderr.String())
		}
		var compact bytes.Buffer
		if err := json.Compact(&compact, stdout.Bytes()); err != nil {
			t.Fatalf("%s: stdout is not JSON: %v", tc.name, err)
		}
		got.WriteString(tc.name + "\t")
		got.Write(compact.Bytes())
		got.WriteByte('\n')
	}
	checkGolden(t, got.Bytes(), "testdata/flag-plans.golden")
}

// inlinePlanCampaign sets what no testdata campaign sets: mock counters,
// in-trial sampling, adaptive repetitions with a cv target, explicit zeros
// (warmup 0, max_cv 0), a space overlapping an earlier one, and a workload
// with its own repetition budget.
const inlinePlanCampaign = `name: golden-inline
counters: [default]
counter_backend: mock
sample_interval: 5ms
spaces:
  - name: adaptive
    specs: [int-alu, chase-l1]
    corun: [fp-mac+chase-l2]
    threads: [1, 3]
    placements: [none, compact]
    min_reps: 2
    max_reps: 7
    cv_target: 0.02
    warmup: 0
    max_cv: 0
    iter_scale: 0.25
  - name: overlap
    specs: [int-alu, mixed-50]
    threads: [1]
    reps: 4
    iter_scale: 0.25
workloads:
  - name: app
    exec: [./app, -t, "${THREADS}"]
    components:
      fpu: 0.5
    threads: [2]
    placements: [scatter]
    min_reps: 2
    max_reps: 5
    cv_target: 0.1
    warmup: 1
    max_cv: 0.3
`

// TestCampaignPlansGolden pins what every testdata campaign file, and one
// in-test campaign, plans: Load (or Parse) then Plan, each plan compacted to
// one JSON line, must match the golden byte for byte. It covers what the
// flag golden cannot: several spaces, co-runs beside solo specs, and
// workload trials.
func TestCampaignPlansGolden(t *testing.T) {
	files, err := filepath.Glob("../../testdata/*.yaml")
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata campaigns: %v", err)
	}
	var got bytes.Buffer
	writePlan := func(name string, c *campaign.Campaign) {
		trials, err := c.Plan()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		line, err := json.Marshal(trials)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got.WriteString(name + "\t")
		got.Write(line)
		got.WriteByte('\n')
	}
	for _, f := range files {
		c, err := campaign.Load(f)
		if err != nil {
			t.Fatal(err)
		}
		writePlan(filepath.Base(f), c)
	}
	c, err := campaign.Parse([]byte(inlinePlanCampaign))
	if err != nil {
		t.Fatal(err)
	}
	writePlan("inline", c)
	checkGolden(t, got.Bytes(), "testdata/campaign-plans.golden")
}
