package campaign

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"energybench/internal/harness"
	"energybench/internal/perf"
)

const validYAML = `
name: unit
meter: mock
mock_watts: 30
executor: subprocess
parallel: 4
trial_timeout: 90s
store: results.jsonl
resume: true
spaces:
  - name: solo
    specs: [int-alu, fp-mac]
    threads: [1, 2]
    reps: 2
    warmup: 0
    iter_scale: 0.05
  - name: corun
    corun: [int-alu+chase-l1]
    threads: [1]
    min_reps: 2
    max_reps: 6
    cv_target: 0.1
`

func TestParseValidYAMLCampaign(t *testing.T) {
	c, err := Parse([]byte(validYAML))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "unit" || c.Executor != ExecutorSubprocess || *c.Parallel != 4 || !c.Resume {
		t.Errorf("top-level fields mis-decoded: %+v", c)
	}
	d, err := c.Timeout()
	if err != nil || d != 90*time.Second {
		t.Errorf("Timeout() = %v, %v; want 90s", d, err)
	}
	if len(c.Spaces) != 2 {
		t.Fatalf("got %d spaces, want 2", len(c.Spaces))
	}
	solo, err := c.Spaces[0].Space()
	if err != nil {
		t.Fatal(err)
	}
	if len(solo.Specs) != 2 || solo.Reps != 2 || solo.Warmup != 0 || solo.IterScale != 0.05 {
		t.Errorf("solo space mis-resolved: %+v", solo)
	}
	// Defaults for fields the file omits must mirror the CLI flag defaults.
	if solo.CVTarget != 0.05 || solo.MaxCV != 0.2 {
		t.Errorf("solo defaults: cv_target=%v max_cv=%v, want 0.05/0.2", solo.CVTarget, solo.MaxCV)
	}
	corun, err := c.Spaces[1].Space()
	if err != nil {
		t.Fatal(err)
	}
	if len(corun.Pairs) != 1 || corun.MinReps != 2 || corun.MaxReps != 6 || corun.CVTarget != 0.1 {
		t.Errorf("corun space mis-resolved: %+v", corun)
	}
	// Warmup omitted → CLI default 1.
	if corun.Warmup != 1 {
		t.Errorf("corun warmup = %d, want default 1", corun.Warmup)
	}
}

func TestParseJSONCampaign(t *testing.T) {
	src := `{
  "name": "json-campaign",
  "executor": "subprocess",
  "parallel": 2,
  "spaces": [{"specs": ["int-alu"], "threads": [1], "reps": 1}]
}`
	c, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "json-campaign" || c.Meter != "mock" || *c.MockWatts != 42 {
		t.Errorf("JSON campaign defaults wrong: %+v", c)
	}
}

func TestPlanRenumbersAcrossSpaces(t *testing.T) {
	c, err := Parse([]byte(validYAML))
	if err != nil {
		t.Fatal(err)
	}
	trials, err := c.Plan()
	if err != nil {
		t.Fatal(err)
	}
	// solo: 2 specs × 2 threads × 1 placement = 4; corun: 1 pair × 1 thread.
	if len(trials) != 5 {
		t.Fatalf("got %d trials, want 5", len(trials))
	}
	for i, tr := range trials {
		if tr.Seq != i {
			t.Errorf("trial %d has Seq %d; campaign plans must be globally sequenced", i, tr.Seq)
		}
	}
	if !trials[4].IsCoRun() {
		t.Errorf("last trial should be the co-run, got %+v", trials[4])
	}
}

func TestLoadFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.yaml")
	if err := os.WriteFile(path, []byte(validYAML), 0o644); err != nil {
		t.Fatal(err)
	}
	c, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "unit" {
		t.Errorf("loaded campaign name %q", c.Name)
	}
	if _, err := Load(filepath.Join(t.TempDir(), "missing.yaml")); err == nil {
		t.Error("loading a missing file should error")
	}
}

func TestParseRejectsInvalidCampaigns(t *testing.T) {
	base := func(mutate string) string {
		return strings.Replace(validYAML, "parallel: 4", mutate, 1)
	}
	cases := []struct {
		name, src, wantErr string
	}{
		{"unknown key", "name: x\nbogus_key: 1\nspaces:\n  - specs: [int-alu]\n", "bogus_key"},
		{"unknown meter", "meter: watts-o-matic\nspaces:\n  - specs: [int-alu]\n", "unknown meter"},
		{"unknown executor", "executor: remote\nspaces:\n  - specs: [int-alu]\n", "unknown executor"},
		{"parallel without subprocess", "parallel: 4\nspaces:\n  - specs: [int-alu]\n", "requires the subprocess executor"},
		{"negative parallel", base("parallel: -1"), "parallel must be at least 1"},
		{"explicit zero parallel", base("parallel: 0"), "parallel must be at least 1"},
		{"timeout without subprocess", "trial_timeout: 5s\nspaces:\n  - specs: [int-alu]\n", "requires the subprocess executor"},
		{"bad timeout", strings.Replace(validYAML, "90s", "ninety", 1), "bad trial_timeout"},
		{"negative timeout", strings.Replace(validYAML, "90s", "-5s", 1), "must be positive"},
		{"resume without store", strings.Replace(validYAML, "store: results.jsonl", "", 1), "resume requires a store"},
		{"no spaces", "name: x\n", "no spaces"},
		{"empty space", "spaces:\n  - name: hollow\n", "neither specs nor corun"},
		{"unknown spec", "spaces:\n  - specs: [warp-drive]\n", "warp-drive"},
		{"bad corun shape", "spaces:\n  - corun: [int-alu]\n", "specA+specB"},
		{"zero threads", "spaces:\n  - specs: [int-alu]\n    threads: [0]\n", "thread count"},
		{"bad iter scale", "spaces:\n  - specs: [int-alu]\n    iter_scale: -1\n", "iter_scale"},
		{"empty file", "   \n", "empty"},
		{"zero mock watts", "mock_watts: 0\nspaces:\n  - specs: [int-alu]\n", "mock_watts must be positive"},
		{"negative mock watts", "mock_watts: -5\nspaces:\n  - specs: [int-alu]\n", "mock_watts must be positive"},
		{"rapl with parallel", "meter: rapl\nexecutor: subprocess\nparallel: 4\nspaces:\n  - specs: [int-alu]\n", "corrupt energy numbers"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.src))
			if err == nil {
				t.Fatalf("Parse succeeded, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestSpaceDropsRepeatedEntries: repeats inside one space keep their first
// appearance, so the plan never holds two trials under one key.
func TestSpaceDropsRepeatedEntries(t *testing.T) {
	src := `
spaces:
  - specs: [int-alu, fp-mac, int-alu]
    corun: [int-alu+chase-l1, " int-alu + chase-l1 "]
    threads: [2, 1, 2, 1]
    placements: [none, none]
`
	c, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	trials, err := c.Plan()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	keys := map[string]bool{}
	for _, tr := range trials {
		key := tr.Key("mock")
		if keys[key] {
			t.Errorf("key %s planned twice", key)
		}
		keys[key] = true
		got = append(got, fmt.Sprintf("%s/t%d", tr.Name(), tr.Threads))
	}
	want := []string{"int-alu/t2", "int-alu/t1", "fp-mac/t2", "fp-mac/t1", "int-alu+chase-l1/t2", "int-alu+chase-l1/t1"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("plan = %v, want %v", got, want)
	}
}

// TestPlanDropsRepeatedKeys: a configuration key is planned once, at its
// first appearance, even when two spaces overlap or a workload repeats a
// thread count or placement; Seq stays dense.
func TestPlanDropsRepeatedKeys(t *testing.T) {
	src := `
spaces:
  - specs: [int-alu]
    threads: [1]
  - specs: [int-alu, fp-mac]
    threads: [1]
workloads:
  - name: stress
    exec: [./stress]
    threads: [1, 2, 1]
    placements: [none, none]
`
	c, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	trials, err := c.Plan()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for i, tr := range trials {
		if tr.Seq != i {
			t.Errorf("trials[%d].Seq = %d", i, tr.Seq)
		}
		got = append(got, fmt.Sprintf("%s/t%d", tr.Name(), tr.Threads))
	}
	want := []string{"int-alu/t1", "fp-mac/t1", "stress/t1", "stress/t2"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("plan = %v, want %v", got, want)
	}
}

func TestSpaceConfigExplicitZeros(t *testing.T) {
	// warmup: 0 and cv_target: 0 are meaningful values, distinct from the
	// omitted-field defaults (1 and 0.05).
	src := `
spaces:
  - specs: [int-alu]
    warmup: 0
    cv_target: 0
    max_cv: 0
`
	c, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	sp, err := c.Spaces[0].Space()
	if err != nil {
		t.Fatal(err)
	}
	if sp.Warmup != 0 || sp.CVTarget != 0 || sp.MaxCV != 0 {
		t.Errorf("explicit zeros lost: warmup=%d cv_target=%v max_cv=%v", sp.Warmup, sp.CVTarget, sp.MaxCV)
	}
	if _, err := harness.Plan(sp); err != nil {
		t.Errorf("explicit-zero space should plan cleanly: %v", err)
	}
}

// TestCampaignCounters: the counters/counter_backend fields resolve to one
// normalized perf.Spec stamped onto every planned trial, "default" expands,
// and a backend alone implies the default event set.
func TestCampaignCounters(t *testing.T) {
	src := `
name: counted
counter_backend: mock
counters: [default, cache-refs]
spaces:
  - specs: [int-alu]
    threads: [1]
    reps: 1
`
	c, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := c.CounterSpec()
	if err != nil {
		t.Fatal(err)
	}
	if spec == nil || spec.Backend != perf.BackendMock {
		t.Fatalf("counter spec = %+v, want mock backend", spec)
	}
	if want := append(perf.DefaultEvents(), "cache-refs"); !reflect.DeepEqual(spec.Events, want) {
		t.Errorf("events = %v, want %v", spec.Events, want)
	}
	trials, err := c.Plan()
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range trials {
		if tr.Counters == nil || !reflect.DeepEqual(tr.Counters.Events, spec.Events) {
			t.Errorf("trial %d counters = %+v, want the campaign spec", tr.Seq, tr.Counters)
		}
	}

	// Backend alone implies the default events.
	backendOnly, err := Parse([]byte("name: x\ncounter_backend: mock\nspaces:\n  - specs: [int-alu]\n"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err = backendOnly.CounterSpec()
	if err != nil || spec == nil || !reflect.DeepEqual(spec.Events, perf.DefaultEvents()) {
		t.Errorf("backend-only counter spec = %+v (%v), want default events", spec, err)
	}

	// No counter fields means no counters on the trials.
	plain, err := Parse([]byte("name: x\nspaces:\n  - specs: [int-alu]\n"))
	if err != nil {
		t.Fatal(err)
	}
	if spec, err := plain.CounterSpec(); err != nil || spec != nil {
		t.Errorf("plain campaign counter spec = %+v (%v), want nil", spec, err)
	}
	trials, err = plain.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if trials[0].Counters != nil {
		t.Error("plain campaign stamped counters onto trials")
	}
}

// TestCampaignCountersRejected: bad counter configuration fails the load.
func TestCampaignCountersRejected(t *testing.T) {
	for _, src := range []string{
		"name: x\ncounters: [tlb-misses]\nspaces:\n  - specs: [int-alu]\n",
		"name: x\ncounters: [default]\ncounter_backend: msr\nspaces:\n  - specs: [int-alu]\n",
	} {
		if _, err := Parse([]byte(src)); err == nil {
			t.Errorf("Parse(%q): want error", src)
		}
	}
}

// TestCampaignSampleInterval: the sample_interval key must parse as a Go
// duration and stamp every planned trial, and bad values must fail the load.
func TestCampaignSampleInterval(t *testing.T) {
	src := `{
  "name": "sampled",
  "sample_interval": "10ms",
  "spaces": [
    {"specs": ["int-alu"], "threads": [1], "reps": 1},
    {"specs": ["fp-mac"], "threads": [1], "reps": 1}
  ]
}`
	c, err := Parse([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	d, err := c.Sampling()
	if err != nil || d != 10*time.Millisecond {
		t.Fatalf("Sampling() = %v, %v; want 10ms", d, err)
	}
	trials, err := c.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 2 {
		t.Fatalf("planned %d trials, want 2", len(trials))
	}
	for i, tr := range trials {
		if tr.SampleInterval != 10*time.Millisecond {
			t.Errorf("trial %d SampleInterval = %v, want 10ms", i, tr.SampleInterval)
		}
	}

	for _, bad := range []string{
		`{"sample_interval": "banana", "spaces": [{"specs": ["int-alu"]}]}`,
		`{"sample_interval": "-5ms", "spaces": [{"specs": ["int-alu"]}]}`,
		`{"sample_interval": "0s", "spaces": [{"specs": ["int-alu"]}]}`,
	} {
		if _, err := Parse([]byte(bad)); err == nil {
			t.Errorf("Parse(%s) accepted a bad sample_interval", bad)
		}
	}

	// Omitted → sampling off.
	c2, err := Parse([]byte(`{"spaces": [{"specs": ["int-alu"]}]}`))
	if err != nil {
		t.Fatal(err)
	}
	if d, err := c2.Sampling(); err != nil || d != 0 {
		t.Errorf("Sampling() on omitted key = %v, %v; want 0", d, err)
	}
}
