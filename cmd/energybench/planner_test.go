package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"energybench/internal/adapt"
)

func writeFile(t *testing.T, path, content string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
}

// plannerArgs is the reference adaptive sweep every test here runs: four
// single-component specs × six thread counts (24-trial grid, 5 model
// parameters) against the planted mock model.
func plannerArgs(db string, extra ...string) []string {
	args := []string{"run",
		"--specs=int-alu,fp-mac,chase-l1,chase-dram", "--threads=1,2,3,4,5,6",
		"--mock-model=int-alu:2,fpu:5,l1:1.5,dram:8", "--mock-noise=0.3",
		"--reps=1", "--warmup=0", "--iter-scale=0.01", "--store=" + db,
	}
	return append(args, extra...)
}

// TestRunActivePlanner drives the full CLI path: `run --algo=active` must
// print a planner report, converge using at most half of the grid, and have
// streamed exactly the dispatched trials into the store.
func TestRunActivePlanner(t *testing.T) {
	db := filepath.Join(t.TempDir(), "db.jsonl")
	out := runOK(t, plannerArgs(db, "--algo=active")...)
	var rep adapt.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("stdout is not a planner report: %v\n%s", err, out.String())
	}
	if rep.Algo != "active" || rep.Seed != adapt.DefaultSeed {
		t.Errorf("report algo/seed = %s/%d, want active/%d", rep.Algo, rep.Seed, adapt.DefaultSeed)
	}
	if rep.GridTrials != 24 {
		t.Errorf("grid = %d trials, want 24", rep.GridTrials)
	}
	if !rep.Converged {
		t.Fatalf("planner did not converge: %+v", rep)
	}
	if rep.RanTrials > rep.GridTrials/2 {
		t.Errorf("planner ran %d of %d trials, want at most half", rep.RanTrials, rep.GridTrials)
	}
	if rep.Fit == nil || rep.Fit.CoeffW["dram"] == 0 {
		t.Errorf("report fit missing or empty: %+v", rep.Fit)
	}
	recs, err := loadStore(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != rep.RanTrials {
		t.Errorf("store holds %d records, report says %d trials ran", len(recs), rep.RanTrials)
	}
}

// TestRunActivePlannerResume interrupts an adaptive campaign via --budget,
// then resumes it: the second invocation must seed from the stored results,
// run only new configurations, and still converge.
func TestRunActivePlannerResume(t *testing.T) {
	db := filepath.Join(t.TempDir(), "db.jsonl")
	out := runOK(t, plannerArgs(db, "--algo=active", "--batch=5", "--budget=5")...)
	var first adapt.Report
	if err := json.Unmarshal(out.Bytes(), &first); err != nil {
		t.Fatalf("first report: %v\n%s", err, out.String())
	}
	if first.RanTrials != 5 || first.Converged {
		t.Fatalf("interrupted run: ran=%d converged=%v, want 5/false", first.RanTrials, first.Converged)
	}

	var stdout, stderr bytes.Buffer
	args := plannerArgs(db, "--algo=active", "--batch=6", "--resume")
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("resumed run: %v\nstderr: %s", err, stderr.String())
	}
	var second adapt.Report
	if err := json.Unmarshal(stdout.Bytes(), &second); err != nil {
		t.Fatalf("resumed report: %v\n%s", err, stdout.String())
	}
	if second.PriorTrials != 5 {
		t.Errorf("resumed report counts %d prior trials, want 5", second.PriorTrials)
	}
	if !second.Converged {
		t.Fatalf("resumed campaign did not converge: %+v", second)
	}
	recs, err := loadStore(db)
	if err != nil {
		t.Fatal(err)
	}
	// Store dedupes by key, so any re-run of a stored configuration would
	// surface as fewer records than prior+ran.
	if len(recs) != second.TotalTrials {
		t.Errorf("store holds %d records, want total_trials=%d (a mismatch means re-run or lost trials)",
			len(recs), second.TotalTrials)
	}
}

// TestRunPlannerFlagValidation: planner knobs without an adaptive algo, and
// malformed planted models, fail before anything runs.
func TestRunPlannerFlagValidation(t *testing.T) {
	for _, tc := range []struct{ name, flag string }{
		{"batch without algo", "--batch=4"},
		{"budget without algo", "--budget=10"},
		{"target-rse without algo", "--target-rse=0.1"},
		{"seed without algo", "--seed=3"},
	} {
		var stdout, stderr bytes.Buffer
		args := []string{"run", "--specs=int-alu", "--reps=1", tc.flag}
		if err := run(context.Background(), args, &stdout, &stderr); err == nil {
			t.Errorf("%s: accepted %s without --algo", tc.name, tc.flag)
		}
	}
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(),
		[]string{"run", "--specs=int-alu", "--reps=1", "--mock-model=bogus"},
		&stdout, &stderr); err == nil {
		t.Error("accepted a malformed --mock-model")
	}
	if err := run(context.Background(),
		[]string{"run", "--specs=int-alu", "--reps=1", "--meter=rapl", "--mock-model=int-alu:2"},
		&stdout, &stderr); err == nil {
		t.Error("accepted --mock-model under --meter=rapl")
	}
}

// TestRunActivePlannerCampaignFile drives the same adaptive sweep through a
// campaign file, exercising the algo/batch/seed/mock_model keys end to end.
func TestRunActivePlannerCampaignFile(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "db.jsonl")
	doc := `
name: planner-unit
meter: mock
mock_model: "int-alu:2,fpu:5,l1:1.5,dram:8"
mock_noise_w: 0.3
algo: active
batch: 8
seed: 1
store: ` + db + `
spaces:
  - specs: [int-alu, fp-mac, chase-l1, chase-dram]
    threads: [1, 2, 3, 4, 5, 6]
    reps: 1
    warmup: 0
    iter_scale: 0.01
`
	path := filepath.Join(dir, "campaign.yaml")
	writeFile(t, path, doc)
	out := runOK(t, "run", "--campaign="+path)
	var rep adapt.Report
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("campaign planner report: %v\n%s", err, out.String())
	}
	if !rep.Converged || rep.RanTrials > rep.GridTrials/2 {
		t.Errorf("campaign planner: converged=%v ran=%d/%d, want convergence within half the grid",
			rep.Converged, rep.RanTrials, rep.GridTrials)
	}
}
