package main

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"encoding/json"
	"math"

	"energybench/internal/harness"
	"energybench/internal/perf"
	"energybench/internal/store"
)

// TestMain lets this test binary impersonate the energybench CLI: the
// subprocess executor re-execs os.Executable() — under `go test`, the test
// binary itself — with the worker env marker set. When the marker is
// present we dispatch straight into run() instead of the test runner, so
// subprocess-executor integration tests exercise the real spawn path.
func TestMain(m *testing.M) {
	if os.Getenv(workerEnvMarker) == "1" {
		if err := run(context.Background(), os.Args[1:], os.Stdout, os.Stderr); err != nil {
			fmt.Fprintln(os.Stderr, "energybench:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestWorkerTrialRoundTrip drives the worker subcommand in-process: a
// serialized trial on stdin must come back as a measured envelope with the
// kernel grafted from the catalog.
func TestWorkerTrialRoundTrip(t *testing.T) {
	trialJSON := `{"seq":0,"spec":{"name":"int-alu","component":"int-alu","iters":1000,"unroll":8},
		"threads":1,"placement":"none","iters":1000,"warmup":0,"min_reps":2,"max_reps":2}`
	var stdout, stderr bytes.Buffer
	err := cmdWorkerTrial(context.Background(), []string{"--meter=mock", "--mock-watts=10"},
		strings.NewReader(trialJSON), &stdout, &stderr)
	if err != nil {
		t.Fatalf("worker-trial failed: %v\nstderr: %s", err, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{`"v":1`, `"spec":"int-alu"`, `"meter":"mock"`} {
		if !strings.Contains(out, want) {
			t.Errorf("envelope %q missing %q", out, want)
		}
	}
}

// TestWorkerTrialErrorsThroughEnvelope: failures must reach stdout as a
// structured envelope (the parent's only reliable channel), not just exit 1.
func TestWorkerTrialErrorsThroughEnvelope(t *testing.T) {
	cases := []struct {
		name, stdin, wantErr string
	}{
		{"garbage stdin", "not json", "decoding trial"},
		{"unknown spec", `{"spec":{"name":"no-such-kernel"},"threads":1,"placement":"none","min_reps":1,"max_reps":1}`, "no-such-kernel"},
		{"no repetitions", `{"spec":{"name":"int-alu"},"threads":1,"placement":"none","iters":1000}`, "min reps must be positive, got 0"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := cmdWorkerTrial(context.Background(), []string{"--meter=mock"},
				strings.NewReader(tc.stdin), &stdout, &stderr)
			if err == nil {
				t.Fatal("want an error")
			}
			if !strings.Contains(stdout.String(), `"error"`) || !strings.Contains(stdout.String(), tc.wantErr) {
				t.Errorf("envelope %q should carry an error mentioning %q", stdout.String(), tc.wantErr)
			}
		})
	}
}

// TestMockWattsMustBePositive: a zero or negative mock draw fails on the run
// flags and in a worker child alike, instead of storing nonsense powers.
func TestMockWattsMustBePositive(t *testing.T) {
	trialJSON := `{"spec":{"name":"int-alu"},"threads":1,"placement":"none","iters":1000,"min_reps":1,"max_reps":1}`
	for _, watts := range []string{"-5", "0"} {
		var stdout, stderr bytes.Buffer
		args := []string{"run", "--mock-watts=" + watts, "--specs=int-alu", "--threads=1",
			"--reps=3", "--warmup=0", "--iter-scale=0.02"}
		err := run(context.Background(), args, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "mock_watts must be positive") {
			t.Errorf("run --mock-watts=%s: err = %v, want a mock_watts error", watts, err)
		}
		if strings.Contains(stdout.String(), "power_w") {
			t.Errorf("run --mock-watts=%s printed results: %.200s", watts, stdout.String())
		}

		stdout.Reset()
		err = cmdWorkerTrial(context.Background(), []string{"--meter=mock", "--mock-watts=" + watts},
			strings.NewReader(trialJSON), &stdout, &stderr)
		var env harness.WorkerEnvelope
		if jerr := json.Unmarshal(stdout.Bytes(), &env); jerr != nil {
			t.Fatalf("worker-trial --mock-watts=%s: bad envelope (%v): %s", watts, jerr, stdout.String())
		}
		if err == nil || env.Result != nil || !strings.Contains(env.Error, "mock_watts must be positive") {
			t.Errorf("worker-trial --mock-watts=%s: err = %v, envelope = %+v, want a mock_watts error", watts, err, env)
		}
	}
}

// TestSubprocessParallelMatchesSerialKeys is the acceptance-criteria test:
// a mock-meter campaign run with --parallel 4 under the subprocess executor
// must produce exactly the same set of store configuration keys as the
// serial in-process run of the same space.
func TestSubprocessParallelMatchesSerialKeys(t *testing.T) {
	dir := t.TempDir()
	serialStore := filepath.Join(dir, "serial.jsonl")
	parallelStore := filepath.Join(dir, "parallel.jsonl")

	spaceArgs := []string{
		"--specs=int-alu,fp-mac", "--corun=int-alu+fp-mac",
		"--threads=1,2", "--reps=1", "--warmup=0", "--iter-scale=0.01",
	}
	var stdout, stderr bytes.Buffer
	args := append([]string{"run", "--meter=mock", "--store=" + serialStore}, spaceArgs...)
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("serial run failed: %v\nstderr: %s", err, stderr.String())
	}

	campaignYAML := fmt.Sprintf(`
name: parity
meter: mock
executor: subprocess
parallel: 4
store: %s
spaces:
  - specs: [int-alu, fp-mac]
    corun: [int-alu+fp-mac]
    threads: [1, 2]
    reps: 1
    warmup: 0
    iter_scale: 0.01
`, parallelStore)
	campaignPath := filepath.Join(dir, "parity.yaml")
	if err := os.WriteFile(campaignPath, []byte(campaignYAML), 0o644); err != nil {
		t.Fatal(err)
	}
	stdout.Reset()
	stderr.Reset()
	if err := run(context.Background(), []string{"run", "--campaign=" + campaignPath}, &stdout, &stderr); err != nil {
		t.Fatalf("campaign run failed: %v\nstderr: %s", err, stderr.String())
	}

	serialKeys, err := storeKeys(serialStore)
	if err != nil {
		t.Fatal(err)
	}
	parallelKeys, err := storeKeys(parallelStore)
	if err != nil {
		t.Fatal(err)
	}
	if len(serialKeys) == 0 {
		t.Fatal("serial run stored nothing")
	}
	if len(serialKeys) != len(parallelKeys) {
		t.Errorf("serial stored %d keys, parallel campaign stored %d", len(serialKeys), len(parallelKeys))
	}
	for k := range serialKeys {
		if !parallelKeys[k] {
			t.Errorf("key %q present in serial store but missing from parallel campaign store", k)
		}
	}
}

// TestCampaignResumeSkipsStoredTrials: a second campaign run with resume
// enabled must skip everything the first run stored.
func TestCampaignResumeSkipsStoredTrials(t *testing.T) {
	dir := t.TempDir()
	storePath := filepath.Join(dir, "resume.jsonl")
	campaignYAML := fmt.Sprintf(`
name: resumable
meter: mock
executor: subprocess
parallel: 2
store: %s
resume: true
spaces:
  - specs: [int-alu]
    threads: [1, 2]
    reps: 1
    warmup: 0
    iter_scale: 0.01
`, storePath)
	campaignPath := filepath.Join(dir, "resumable.yaml")
	if err := os.WriteFile(campaignPath, []byte(campaignYAML), 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"run", "--campaign=" + campaignPath}, &stdout, &stderr); err != nil {
		t.Fatalf("first campaign run failed: %v\nstderr: %s", err, stderr.String())
	}
	stdout.Reset()
	stderr.Reset()
	if err := run(context.Background(), []string{"run", "--campaign=" + campaignPath}, &stdout, &stderr); err != nil {
		t.Fatalf("second campaign run failed: %v\nstderr: %s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), "skipped 2 already-stored trials, 0 to run") {
		t.Errorf("second run should have skipped both trials; stderr: %s", stderr.String())
	}
}

// TestRunFlagValidationFailsFast: invalid executor/parallelism combinations
// and sweep numbers must error out before any trial runs instead of
// silently serializing or planning a different sweep.
func TestRunFlagValidationFailsFast(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"parallel with inprocess", []string{"run", "--parallel=4"}, "requires the subprocess executor"},
		{"parallel zero", []string{"run", "--parallel=0", "--executor=subprocess"}, "at least 1"},
		{"unknown executor", []string{"run", "--executor=quantum"}, "unknown executor"},
		{"timeout with inprocess", []string{"run", "--trial-timeout=5s"}, "requires the subprocess executor"},
		{"campaign with space flags", []string{"run", "--campaign=x.yaml", "--specs=int-alu"}, "exclusive"},
		{"campaign with meter flag", []string{"run", "--campaign=x.yaml", "--meter=mock"}, "exclusive"},
		{"missing campaign file", []string{"run", "--campaign=/does/not/exist.yaml"}, "exist"},
		// Non-finite and overflowing sweep numbers fail validation, dry run
		// or not, instead of planning a wrong sweep.
		{"infinite iter scale", []string{"run", "--dry-run", "--specs=int-alu", "--threads=1", "--iter-scale=Inf"},
			"campaign: space #1: iter_scale must be positive and finite, got +Inf"},
		{"overflowing iter scale", []string{"run", "--dry-run", "--specs=int-alu", "--threads=1", "--iter-scale=1e13"},
			`campaign: space #1: iter_scale 1e+13 overflows spec "int-alu"`},
		{"NaN iter scale", []string{"run", "--dry-run", "--specs=int-alu", "--threads=1", "--iter-scale=NaN"},
			"campaign: space #1: iter_scale must be positive and finite, got NaN"},
		{"NaN cv target", []string{"run", "--dry-run", "--specs=int-alu", "--threads=1", "--cv-target=NaN", "--max-reps=6"},
			"campaign: space #1: cv target must be non-negative and finite, got NaN"},
		{"NaN max cv", []string{"run", "--dry-run", "--specs=int-alu", "--threads=1", "--max-cv=NaN"},
			"campaign: space #1: max cv must be non-negative and finite, got NaN"},
		{"negative max cv", []string{"run", "--dry-run", "--specs=int-alu", "--threads=1", "--max-cv=-1"},
			"campaign: space #1: max cv must be non-negative and finite, got -1"},
		{"NaN target rse", []string{"run", "--dry-run", "--specs=int-alu", "--threads=1", "--algo=active", "--target-rse=NaN"},
			"campaign: target_rse must be positive and finite, got NaN"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(context.Background(), tc.args, &stdout, &stderr)
			if err == nil {
				t.Fatalf("run %v succeeded, want error containing %q", tc.args, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestCampaignDryRun: --dry-run composes with --campaign and prints the
// combined plan without spawning a single worker.
func TestCampaignDryRun(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"run", "--campaign=../../testdata/smoke.yaml", "--dry-run"}, &stdout, &stderr)
	if err != nil {
		t.Fatalf("dry run failed: %v\nstderr: %s", err, stderr.String())
	}
	out := stdout.String()
	// smoke.yaml: solo 3 specs × 2 threads + corun 1 pair × 2 threads = 8.
	if !strings.Contains(out, `"trials": 8`) {
		t.Errorf("dry-run plan should count 8 trials; output: %.400s", out)
	}
	if !strings.Contains(stderr.String(), `campaign "ci-smoke"`) {
		t.Errorf("stderr should announce the campaign; got: %s", stderr.String())
	}
}

// TestWorkerTrialCountersRoundTrip: a trial carrying a counter spec must
// come back through the worker envelope with the measured activity vector
// attached — the counters half of the subprocess protocol.
func TestWorkerTrialCountersRoundTrip(t *testing.T) {
	trialJSON := `{"seq":0,"spec":{"name":"int-alu","component":"int-alu","iters":20000,"unroll":8},
		"threads":2,"placement":"none","iters":20000,"warmup":0,"min_reps":2,"max_reps":2,
		"counters":{"backend":"mock","events":["instructions","llc-misses"]}}`
	var stdout, stderr bytes.Buffer
	err := cmdWorkerTrial(context.Background(), []string{"--meter=mock", "--mock-watts=10"},
		strings.NewReader(trialJSON), &stdout, &stderr)
	if err != nil {
		t.Fatalf("worker-trial failed: %v\nstderr: %s", err, stderr.String())
	}
	var env harness.WorkerEnvelope
	if err := json.Unmarshal(stdout.Bytes(), &env); err != nil {
		t.Fatalf("bad envelope: %v\n%s", err, stdout.String())
	}
	if env.Result == nil {
		t.Fatalf("envelope has no result: %s", stdout.String())
	}
	c := env.Result.Counters
	if c == nil {
		t.Fatal("counters did not survive the worker envelope")
	}
	if c.Backend != "mock" || len(c.Events) != 2 || len(c.Threads) != 2 || c.Reps != 2 {
		t.Errorf("counters = %+v, want mock backend, 2 events, 2 threads, 2 reps", c)
	}
	planted := perf.MockRate("int-alu", "instructions")
	if got := c.Events[0].RateHzMean; math.Abs(got-2*planted) > 2*planted*0.05 {
		t.Errorf("instruction rate = %v, want ~%v (2 threads × planted rate)", got, 2*planted)
	}
}

// TestSubprocessCounterPipeline is the acceptance-criteria test for the
// counter subsystem: run --counters under the subprocess executor (real
// re-exec'd worker children), then analyze --activity=counters over the
// store — the whole measured-activity pipeline end to end on the mock
// backends.
func TestSubprocessCounterPipeline(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "counters.jsonl")
	var stdout, stderr bytes.Buffer
	args := []string{"run", "--meter=mock", "--executor=subprocess",
		"--specs=int-alu,chase-dram", "--threads=1,2", "--reps=2", "--warmup=0",
		"--iter-scale=0.02", "--counters=default", "--counter-backend=mock",
		"--store=" + db}
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("counter run failed: %v\nstderr: %s", err, stderr.String())
	}

	recs, err := loadStore(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 {
		t.Fatalf("stored %d results, want 4", len(recs))
	}
	for _, rec := range recs {
		if rec.V != store.SchemaVersion {
			t.Errorf("record schema v%d, want v%d", rec.V, store.SchemaVersion)
		}
		c := rec.Result.Counters
		if c == nil {
			t.Fatalf("stored result %s has no counters", rec.Key)
		}
		if len(c.Events) != len(perf.DefaultEvents()) {
			t.Errorf("result %s counted %d events, want the %d defaults", rec.Key, len(c.Events), len(perf.DefaultEvents()))
		}
		if len(c.Threads) != rec.Result.Threads {
			t.Errorf("result %s has %d thread entries, want %d", rec.Key, len(c.Threads), rec.Result.Threads)
		}
	}

	stdout.Reset()
	stderr.Reset()
	if err := run(context.Background(), []string{"analyze", "--db=" + db, "--activity=counters"}, &stdout, &stderr); err != nil {
		t.Fatalf("analyze --activity=counters failed: %v\nstderr: %s", err, stderr.String())
	}
	var doc struct {
		Activity     string `json:"activity"`
		Observations int    `json:"observations"`
		Fit          *struct {
			CoeffW map[string]float64 `json:"coeff_w_per_thread"`
		} `json:"fit"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Activity != "counters" || doc.Observations != 4 {
		t.Errorf("activity/observations = %q/%d, want counters/4", doc.Activity, doc.Observations)
	}
	if doc.Fit == nil || len(doc.Fit.CoeffW) == 0 {
		t.Errorf("fit has no coefficients: %s", stdout.String())
	}
}

// TestRunCounterFlagValidation: counter flag misuse fails before any trial.
func TestRunCounterFlagValidation(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantErr string
	}{
		{"backend without counters", []string{"run", "--counter-backend=mock"}, "requires --counters"},
		{"unknown event", []string{"run", "--counters=tlb-shootdowns"}, "unknown event"},
		{"unknown backend", []string{"run", "--counters=default", "--counter-backend=msr"}, "unknown counter backend"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(context.Background(), tc.args, &stdout, &stderr)
			if err == nil {
				t.Fatalf("run %v succeeded, want error containing %q", tc.args, tc.wantErr)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestWorkerTrialMinimalSpecGraftsCatalogParams: a hand-fed trial naming
// only the spec must pick up the catalog's working set (a chase kernel on an
// empty workspace panics) and run.
func TestWorkerTrialMinimalSpecGraftsCatalogParams(t *testing.T) {
	trialJSON := `{"spec":{"name":"chase-dram"},"threads":1,"placement":"none","iters":2000,"min_reps":1,"max_reps":1}`
	var stdout, stderr bytes.Buffer
	err := cmdWorkerTrial(context.Background(), []string{"--meter=mock"},
		strings.NewReader(trialJSON), &stdout, &stderr)
	if err != nil {
		t.Fatalf("worker-trial failed: %v\nstderr: %s", err, stderr.String())
	}
	var env harness.WorkerEnvelope
	if err := json.Unmarshal(stdout.Bytes(), &env); err != nil || env.Result == nil {
		t.Fatalf("bad envelope (%v): %s", err, stdout.String())
	}
	if env.Result.Component != "dram" {
		t.Errorf("component = %q, want dram grafted from the catalog", env.Result.Component)
	}
}

// TestWorkerTrialSampleSeriesRoundTrip: a trial carrying a sample interval
// must come back through the worker envelope with per-rep time-resolved
// series intact — the subprocess executor transports them unchanged.
func TestWorkerTrialSampleSeriesRoundTrip(t *testing.T) {
	trialJSON := `{"seq":0,"spec":{"name":"int-alu","component":"int-alu","iters":400000,"unroll":8},
		"threads":1,"placement":"none","iters":400000,"warmup":0,"min_reps":2,"max_reps":2,
		"sample_interval_ns":5000000}`
	var stdout, stderr bytes.Buffer
	err := cmdWorkerTrial(context.Background(), []string{"--meter=mock", "--mock-watts=30", "--mock-schedule=0.02:10"},
		strings.NewReader(trialJSON), &stdout, &stderr)
	if err != nil {
		t.Fatalf("worker-trial failed: %v\nstderr: %s", err, stderr.String())
	}
	var env harness.WorkerEnvelope
	if err := json.Unmarshal(stdout.Bytes(), &env); err != nil {
		t.Fatalf("envelope is not valid JSON: %v", err)
	}
	if env.Error != "" || env.Result == nil {
		t.Fatalf("envelope = %+v, want a result", env)
	}
	res := env.Result
	if res.SampleInterval != 5*time.Millisecond {
		t.Errorf("SampleInterval = %v, want 5ms", res.SampleInterval)
	}
	if len(res.Samples) != 2 {
		t.Fatalf("%d samples, want 2", len(res.Samples))
	}
	for i, s := range res.Samples {
		if s.Series == nil {
			t.Fatalf("sample %d lost its series crossing the envelope", i)
		}
		if s.Series.IntervalS != 0.005 {
			t.Errorf("sample %d IntervalS = %v, want 0.005", i, s.Series.IntervalS)
		}
		if len(s.Series.Points) < 1 {
			t.Errorf("sample %d series is empty", i)
		}
	}
}
