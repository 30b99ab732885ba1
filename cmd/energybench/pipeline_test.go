package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

// planOut mirrors the planDoc JSON for decoding in tests.
type planOut struct {
	Trials       int `json:"trials"`
	Skipped      int `json:"skipped"`
	MinTotalReps int `json:"min_total_reps"`
	MaxTotalReps int `json:"max_total_reps"`
	Plan         []struct {
		Spec struct {
			Name string `json:"name"`
		} `json:"spec"`
		Threads int `json:"threads"`
	} `json:"plan"`
}

// TestRunResumeSkipsStoredTrials is the acceptance-criteria integration
// test: `run --resume` against a pre-populated store must execute zero
// trials for already-stored configurations.
func TestRunResumeSkipsStoredTrials(t *testing.T) {
	db := filepath.Join(t.TempDir(), "db.jsonl")
	base := []string{"run", "--specs=int-alu", "--threads=1,2", "--reps=1",
		"--warmup=0", "--iter-scale=0.01", "--store=" + db}
	runOK(t, base...)

	// Identical space, resumed: every trial is already stored, so nothing
	// may execute and the output must be an empty (but valid) JSON array.
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), append(base, "--resume"), &stdout, &stderr); err != nil {
		t.Fatalf("resumed run failed: %v\nstderr: %s", err, stderr.String())
	}
	var results []cliResult
	if err := json.Unmarshal(stdout.Bytes(), &results); err != nil {
		t.Fatalf("resumed output is not valid JSON: %v\n%s", err, stdout.String())
	}
	if len(results) != 0 {
		t.Fatalf("resumed run executed %d trials, want 0", len(results))
	}
	if !strings.Contains(stderr.String(), "skipped 2 already-stored trials") {
		t.Errorf("stderr missing skip count: %s", stderr.String())
	}
	recs, err := loadStore(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Errorf("store grew to %d records after a fully-skipped resume, want 2", len(recs))
	}

	// Widening the space and resuming runs only the new configuration.
	widened := []string{"run", "--specs=int-alu", "--threads=1,2,4", "--reps=1",
		"--warmup=0", "--iter-scale=0.01", "--store=" + db, "--resume"}
	stdout.Reset()
	stderr.Reset()
	if err := run(context.Background(), widened, &stdout, &stderr); err != nil {
		t.Fatalf("widened resume failed: %v\nstderr: %s", err, stderr.String())
	}
	results = nil
	if err := json.Unmarshal(stdout.Bytes(), &results); err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || results[0].Threads != 4 {
		t.Fatalf("widened resume executed %+v, want only the t4 trial", results)
	}
	if recs, err = loadStore(db); err != nil || len(recs) != 3 {
		t.Errorf("store holds %d records (err %v), want 3", len(recs), err)
	}
}

func TestRunResumeRequiresStore(t *testing.T) {
	var stdout, stderr bytes.Buffer
	err := run(context.Background(), []string{"run", "--resume", "--specs=int-alu"}, &stdout, &stderr)
	if err == nil || !strings.Contains(err.Error(), "--store") {
		t.Errorf("err = %v, want --resume-requires---store error", err)
	}
}

// TestRunDryRunPrintsPlan: --dry-run sizes the sweep without executing it
// (and without constructing a meter).
func TestRunDryRunPrintsPlan(t *testing.T) {
	out := runOK(t, "run", "--dry-run", "--specs=int-alu,chase-l1",
		"--threads=1,2", "--reps=2", "--max-reps=8")
	var doc planOut
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Trials != 4 || len(doc.Plan) != 4 {
		t.Fatalf("planned %d trials (%d listed), want 4", doc.Trials, len(doc.Plan))
	}
	if doc.MinTotalReps != 8 || doc.MaxTotalReps != 32 {
		t.Errorf("rep totals = %d/%d, want 8/32", doc.MinTotalReps, doc.MaxTotalReps)
	}
}

// TestListEstimatesTrialCount: list with space flags performs a planner dry
// run instead of printing the catalog.
func TestListEstimatesTrialCount(t *testing.T) {
	out := runOK(t, "list", "--threads=1,2,4", "--placement=none,compact")
	var doc planOut
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Trials != 42 { // 7 catalog specs × 3 thread counts × 2 placements
		t.Errorf("estimated %d trials, want 42", doc.Trials)
	}
	if doc.MinTotalReps != 42*3 {
		t.Errorf("min total reps = %d, want %d at the default 3 reps", doc.MinTotalReps, 42*3)
	}
}

// TestListDropsRepeatedFlagEntries: a spec, co-run pair or placement given
// twice plans once, so no two trials share a configuration key.
func TestListDropsRepeatedFlagEntries(t *testing.T) {
	out := runOK(t, "list", "--specs=int-alu,int-alu", "--corun=int-alu+fp-mac,int-alu+fp-mac",
		"--placement=none,none", "--threads=1")
	var doc planOut
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Trials != 2 {
		t.Errorf("planned %d trials, want 2 (one solo, one co-run): %+v", doc.Trials, doc.Plan)
	}
}

// cancelOnFirstWrite cancels a context the first time anything is written,
// standing in for a user hitting Ctrl-C right as the first progress line
// appears.
type cancelOnFirstWrite struct {
	cancel context.CancelFunc
	fired  bool
	buf    bytes.Buffer
}

func (w *cancelOnFirstWrite) Write(p []byte) (int, error) {
	if !w.fired {
		w.fired = true
		w.cancel()
	}
	return w.buf.Write(p)
}

// TestRunStoreFlushedBeforeInterrupt is the SIGINT-durability regression
// test: interrupting a sweep right after its first trial completes must
// leave that trial in the store (flushed per configuration) and the stdout
// JSON array well-formed.
func TestRunStoreFlushedBeforeInterrupt(t *testing.T) {
	db := filepath.Join(t.TempDir(), "db.jsonl")
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	stderr := &cancelOnFirstWrite{cancel: cancel}
	var stdout bytes.Buffer

	err := run(ctx, []string{"run", "--specs=int-alu", "--threads=1,2", "--reps=1",
		"--warmup=0", "--iter-scale=0.01", "--store=" + db, "--progress"}, &stdout, stderr)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}

	recs, err := loadStore(db)
	if err != nil {
		t.Fatalf("store unreadable after interrupt: %v", err)
	}
	if len(recs) != 1 {
		t.Fatalf("store holds %d records after interrupt following trial 1, want exactly 1", len(recs))
	}
	var results []cliResult
	if err := json.Unmarshal(stdout.Bytes(), &results); err != nil {
		t.Fatalf("interrupted stdout is not valid JSON: %v\n%s", err, stdout.String())
	}
	if len(results) != 1 {
		t.Errorf("interrupted output carries %d results, want the 1 completed trial", len(results))
	}
}
