package campaign

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

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
	solo, err := c.Spaces[0].Trials()
	if err != nil {
		t.Fatal(err)
	}
	if len(solo) != 4 {
		t.Fatalf("solo space expands to %d trials, want 4", len(solo))
	}
	// 0.05 × int-alu's 4,000,000 iterations; defaults for fields the file
	// omits must mirror the CLI flag defaults (cv_target 0.05, max_cv 0.2).
	if tr := solo[0]; tr.MinReps != 2 || tr.MaxReps != 2 || tr.Warmup != 0 || tr.Iters != 200000 ||
		tr.CVTarget != 0.05 || tr.MaxCV != 0.2 {
		t.Errorf("solo trial mis-resolved: %+v", tr)
	}
	corun, err := c.Spaces[1].Trials()
	if err != nil {
		t.Fatal(err)
	}
	if len(corun) != 1 || !corun[0].IsCoRun() {
		t.Fatalf("corun space expands to %+v, want one co-run trial", corun)
	}
	// Warmup omitted → CLI default 1.
	if tr := corun[0]; tr.MinReps != 2 || tr.MaxReps != 6 || tr.CVTarget != 0.1 || tr.Warmup != 1 {
		t.Errorf("corun trial mis-resolved: %+v", tr)
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
		{"overflowing iter scale", "spaces:\n  - specs: [int-alu]\n    iter_scale: 1e13\n", "iter_scale 1e+13 overflows spec \"int-alu\""},
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
	trials, err := c.Spaces[0].Trials()
	if err != nil {
		t.Fatalf("explicit-zero space should plan cleanly: %v", err)
	}
	for _, tr := range trials {
		if tr.Warmup != 0 || tr.CVTarget != 0 || tr.MaxCV != 0 {
			t.Errorf("explicit zeros lost: warmup=%d cv_target=%v max_cv=%v", tr.Warmup, tr.CVTarget, tr.MaxCV)
		}
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

func ptr[T any](v T) *T { return &v }

// TestSpaceValidate: SpaceConfig.Trials rejects every space it cannot
// expand into runnable trials, naming the fault.
func TestSpaceValidate(t *testing.T) {
	good := SpaceConfig{Specs: []string{"int-alu", "chase-l1"}}
	if _, err := good.Trials(); err != nil {
		t.Fatalf("valid space rejected: %v", err)
	}
	mutations := []struct {
		name    string
		mut     func(*SpaceConfig)
		wantErr string
	}{
		{"no-specs", func(s *SpaceConfig) { s.Specs = nil }, "neither specs nor corun pairs"},
		{"zero-threads", func(s *SpaceConfig) { s.Threads = []int{0} }, "non-positive thread count 0"},
		{"negative-reps", func(s *SpaceConfig) { s.Reps = -1 }, "min reps must be positive, got -1"},
		{"negative-warmup", func(s *SpaceConfig) { s.Warmup = ptr(-1) }, "warmup must be non-negative, got -1"},
		{"unknown-spec", func(s *SpaceConfig) { s.Specs = []string{"broken"} }, "broken"},
		{"unknown-placement", func(s *SpaceConfig) { s.Placements = []string{"diagonal"} }, "diagonal"},
		{"zero-iter-scale", func(s *SpaceConfig) { s.IterScal = ptr(0.0) }, "iter_scale must be positive and finite, got 0"},
		{"nan-iter-scale", func(s *SpaceConfig) { s.IterScal = ptr(math.NaN()) }, "iter_scale must be positive and finite, got NaN"},
		{"inf-iter-scale", func(s *SpaceConfig) { s.IterScal = ptr(math.Inf(1)) }, "iter_scale must be positive and finite, got +Inf"},
		{"overflowing-iter-scale", func(s *SpaceConfig) { s.IterScal = ptr(1e13) }, "iter_scale 1e+13 overflows spec \"int-alu\""},
		{"negative-inf-cv-target", func(s *SpaceConfig) { s.CVTarget = ptr(math.Inf(-1)) }, "cv target must be non-negative and finite, got -Inf"},
		{"nan-cv-target", func(s *SpaceConfig) { s.CVTarget = ptr(math.NaN()) }, "cv target must be non-negative and finite, got NaN"},
		{"inf-cv-target", func(s *SpaceConfig) { s.CVTarget = ptr(math.Inf(1)) }, "cv target must be non-negative and finite, got +Inf"},
		{"negative-max-cv", func(s *SpaceConfig) { s.MaxCV = ptr(-1.0) }, "max cv must be non-negative and finite, got -1"},
		{"nan-max-cv", func(s *SpaceConfig) { s.MaxCV = ptr(math.NaN()) }, "max cv must be non-negative and finite, got NaN"},
		{"inf-max-cv", func(s *SpaceConfig) { s.MaxCV = ptr(math.Inf(1)) }, "max cv must be non-negative and finite, got +Inf"},
	}
	for _, tc := range mutations {
		t.Run(tc.name, func(t *testing.T) {
			s := good
			tc.mut(&s)
			_, err := s.Trials()
			if err == nil {
				t.Fatalf("invalid space accepted, want error containing %q", tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestSpaceValidateCoRun: a space of co-run pairs alone is valid, and a
// pair naming an unknown spec is rejected.
func TestSpaceValidateCoRun(t *testing.T) {
	good := SpaceConfig{Corun: []string{"int-alu+chase-l1"}, Threads: []int{1}, Reps: 1}
	if _, err := good.Trials(); err != nil {
		t.Fatalf("valid pair-only space rejected: %v", err)
	}
	bad := good
	bad.Corun = []string{"int-alu+broken"}
	if _, err := bad.Trials(); err == nil || !strings.Contains(err.Error(), "broken") {
		t.Errorf("space with an unknown pair member: err = %v, want it named", err)
	}
}

// TestPlanExpandsSpaceInOrder: solo specs come first, then co-run pairs,
// each crossed with every thread count and then every placement in order,
// Seq counted from 0 and the reps shorthand giving min = max.
func TestPlanExpandsSpaceInOrder(t *testing.T) {
	sc := SpaceConfig{
		Specs:      []string{"int-alu", "chase-l1"},
		Corun:      []string{"int-alu+chase-l1"},
		Placements: []string{"none", "scatter"},
	}
	trials, err := sc.Trials()
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for i, tr := range trials {
		if tr.Seq != i {
			t.Errorf("trials[%d].Seq = %d", i, tr.Seq)
		}
		if tr.MinReps != 3 || tr.MaxReps != 3 || tr.Warmup != 1 {
			t.Errorf("trials[%d]: reps %d/%d warmup %d, want the defaults 3/3 and 1", i, tr.MinReps, tr.MaxReps, tr.Warmup)
		}
		got = append(got, fmt.Sprintf("%s/t%d/%s", tr.Name(), tr.Threads, tr.Placement))
	}
	want := []string{
		"int-alu/t1/none", "int-alu/t1/scatter", "int-alu/t2/none", "int-alu/t2/scatter",
		"chase-l1/t1/none", "chase-l1/t1/scatter", "chase-l1/t2/none", "chase-l1/t2/scatter",
		"int-alu+chase-l1/t1/none", "int-alu+chase-l1/t1/scatter", "int-alu+chase-l1/t2/none", "int-alu+chase-l1/t2/scatter",
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("plan = %v, want %v", got, want)
	}
}

// TestPlanAppliesIterScaleAndRepBounds: iter_scale scales both sides of a
// co-run, never below one iteration, and min_reps/max_reps/cv_target
// override the reps shorthand.
func TestPlanAppliesIterScaleAndRepBounds(t *testing.T) {
	sc := SpaceConfig{
		Specs: []string{"int-alu"}, Corun: []string{"int-alu+chase-dram"}, Threads: []int{1},
		IterScal: ptr(0.5), Reps: 2, MinReps: 3, MaxReps: 9, CVTarget: ptr(0.1),
	}
	trials, err := sc.Trials()
	if err != nil {
		t.Fatal(err)
	}
	if trials[0].Iters != 2_000_000 {
		t.Errorf("Iters = %d, want 2000000 after 0.5 scale of 4000000", trials[0].Iters)
	}
	if trials[1].Iters != 2_000_000 || trials[1].ItersB != 200_000 {
		t.Errorf("co-run iters = %d+%d, want 2000000+200000", trials[1].Iters, trials[1].ItersB)
	}
	if trials[0].MinReps != 3 || trials[0].MaxReps != 9 || trials[0].CVTarget != 0.1 {
		t.Errorf("rep budget = %d/%d cv %v, want 3/9 cv 0.1",
			trials[0].MinReps, trials[0].MaxReps, trials[0].CVTarget)
	}
	sc.IterScal = ptr(1e-9)
	if trials, err = sc.Trials(); err != nil || trials[0].Iters != 1 {
		t.Errorf("tiny scale: trials %+v, err %v; want one iteration", trials, err)
	}
}

// TestSpaceValidateRepBounds: the repetition budget resolves reps as the
// shorthand for min = max, and rejects a non-positive minimum and a maximum
// below it.
func TestSpaceValidateRepBounds(t *testing.T) {
	for _, tc := range []struct {
		name             string
		sc               SpaceConfig
		minReps, maxReps int
		wantErr          string
	}{
		{"default", SpaceConfig{}, 3, 3, ""},
		{"max only", SpaceConfig{MaxReps: 5}, 3, 5, ""},
		{"min without reps", SpaceConfig{MinReps: 2}, 2, 2, ""},
		{"min over reps", SpaceConfig{Reps: 2, MinReps: 4}, 4, 4, ""},
		{"negative min", SpaceConfig{MinReps: -2, MaxReps: 5}, 0, 0, "min reps must be positive, got -2"},
		{"max below min", SpaceConfig{MinReps: 5, MaxReps: 2}, 0, 0, "max reps 2 below min reps 5"},
		{"negative cv target", SpaceConfig{CVTarget: ptr(-1.0)}, 0, 0, "cv target must be non-negative and finite, got -1"},
	} {
		tc.sc.Specs = []string{"int-alu"}
		trials, err := tc.sc.Trials()
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: err = %v, want %q", tc.name, err, tc.wantErr)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if tr := trials[0]; tr.MinReps != tc.minReps || tr.MaxReps != tc.maxReps {
			t.Errorf("%s: reps %d/%d, want %d/%d", tc.name, tr.MinReps, tr.MaxReps, tc.minReps, tc.maxReps)
		}
	}
}

// TestPlanStampsNormalizedCounterSpec: Plan attaches the normalized counter
// spec (explicit backend and expanded event list) to every space and
// workload trial, so serialized trials are self-describing.
func TestPlanStampsNormalizedCounterSpec(t *testing.T) {
	c, err := Parse([]byte("counter_backend: mock\nspaces:\n  - specs: [int-alu]\n    threads: [1]\n" +
		"workloads:\n  - name: w\n    exec: [./w]\n"))
	if err != nil {
		t.Fatal(err)
	}
	trials, err := c.Plan()
	if err != nil {
		t.Fatal(err)
	}
	if len(trials) != 2 {
		t.Fatalf("planned %d trials, want 2", len(trials))
	}
	for _, tr := range trials {
		if c := tr.Counters; c == nil || c.Backend != perf.BackendMock || !reflect.DeepEqual(c.Events, perf.DefaultEvents()) {
			t.Errorf("%s: stamped spec = %+v, want mock backend with the default events expanded", tr.Name(), c)
		}
	}
	if _, err := Parse([]byte("counters: [tlb-flushes]\nspaces:\n  - specs: [int-alu]\n")); err == nil {
		t.Error("Parse should reject an unknown counter event")
	}
}
