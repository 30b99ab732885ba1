package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"energybench/internal/harness"
	"energybench/internal/model"
	"energybench/internal/store"
)

var update = flag.Bool("update", false, "rewrite golden files")

func runOK(t *testing.T, args ...string) *bytes.Buffer {
	t.Helper()
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v) failed: %v\nstderr: %s", args, err, stderr.String())
	}
	return &stdout
}

// loadStore reads every deduped record of the store at db.
func loadStore(db string) ([]store.Record, error) {
	st, err := store.Open(db)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var out []store.Record
	for rec, err := range st.Query(store.Filter{}) {
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// storeKeys returns the configuration-key set of the store at db.
func storeKeys(db string) (map[string]bool, error) {
	st, err := store.Open(db)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.Keys()
}

// appendStore appends results to the store at db, creating it if needed.
func appendStore(t *testing.T, db string, results ...harness.Result) {
	t.Helper()
	st, err := store.Create(db)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append(results); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
}

func checkGolden(t *testing.T, got []byte, goldenPath string) {
	t.Helper()
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (run 'go test ./cmd/energybench -run %s -update' to create it)", err, t.Name())
	}
	if !bytes.Equal(got, want) {
		t.Errorf("output does not match %s:\ngot:\n%s\nwant:\n%s", goldenPath, got, want)
	}
}

// TestAnalyzeGolden fits the checked-in synthetic store, whose powers follow
// P = 10 + 2·intalu + 5·dram exactly, and freezes the full analyze output.
func TestAnalyzeGolden(t *testing.T) {
	out := runOK(t, "analyze", "--db=testdata/store.jsonl")
	checkGolden(t, out.Bytes(), filepath.Join("testdata", "analyze.golden.json"))

	var doc struct {
		Fit struct {
			PStaticW float64            `json:"p_static_w"`
			CoeffW   map[string]float64 `json:"coeff_w_per_thread"`
			R2       float64            `json:"r2"`
		} `json:"fit"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if math.Abs(doc.Fit.PStaticW-10) > 1e-6 {
		t.Errorf("P_static = %v, want 10 (planted)", doc.Fit.PStaticW)
	}
	if math.Abs(doc.Fit.CoeffW["int-alu"]-2) > 1e-6 || math.Abs(doc.Fit.CoeffW["dram"]-5) > 1e-6 {
		t.Errorf("coefficients = %v, want int-alu:2 dram:5 (planted)", doc.Fit.CoeffW)
	}
	if doc.Fit.R2 < 1-1e-9 {
		t.Errorf("R² = %v, want 1 for noiseless synthetic data", doc.Fit.R2)
	}
}

func TestCompareGolden(t *testing.T) {
	out := runOK(t, "compare", "--db=testdata/store.jsonl")
	checkGolden(t, out.Bytes(), filepath.Join("testdata", "compare.golden.json"))

	var infs []model.Interference
	if err := json.Unmarshal(out.Bytes(), &infs); err != nil {
		t.Fatal(err)
	}
	if len(infs) != 1 {
		t.Fatalf("got %d interference entries, want 1", len(infs))
	}
	if math.Abs(infs[0].SlowdownA-1.2) > 1e-9 || math.Abs(infs[0].SlowdownB-1.25) > 1e-9 {
		t.Errorf("slowdowns = %v/%v, want 1.2/1.25", infs[0].SlowdownA, infs[0].SlowdownB)
	}
	if math.Abs(infs[0].ExcessEnergyJ-0.5) > 1e-9 {
		t.Errorf("excess energy = %v, want 0.5", infs[0].ExcessEnergyJ)
	}
}

// TestRunStoreAnalyzePipeline is the acceptance-criteria test: a mock-meter
// run piped through `store add` and then `analyze` must recover the mock's
// constant power as P_static within 1%, with near-zero per-component
// coefficients (a constant-power machine has no dynamic component).
func TestRunStoreAnalyzePipeline(t *testing.T) {
	dir := t.TempDir()
	db := filepath.Join(dir, "db.jsonl")
	runJSON := filepath.Join(dir, "run.json")

	const watts = 42.0
	out := runOK(t, "run",
		"--meter=mock",
		"--specs=int-alu,chase-l1",
		"--threads=1,2",
		"--reps=2", "--warmup=1",
		"--iter-scale=0.5",
	)
	if err := os.WriteFile(runJSON, out.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	var added struct {
		Added int `json:"added"`
	}
	addOut := runOK(t, "store", "add", "--db="+db, "--from="+runJSON)
	if err := json.Unmarshal(addOut.Bytes(), &added); err != nil {
		t.Fatal(err)
	}
	if added.Added != 4 { // 2 specs × 2 thread counts
		t.Fatalf("stored %d results, want 4", added.Added)
	}

	var doc struct {
		Observations int `json:"observations"`
		Fit          struct {
			PStaticW float64            `json:"p_static_w"`
			CoeffW   map[string]float64 `json:"coeff_w_per_thread"`
		} `json:"fit"`
	}
	anOut := runOK(t, "analyze", "--db="+db)
	if err := json.Unmarshal(anOut.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Observations != 4 {
		t.Errorf("analyzed %d observations, want 4", doc.Observations)
	}
	if math.Abs(doc.Fit.PStaticW-watts) > 0.01*watts {
		t.Errorf("P_static = %v, want %v ± 1%%", doc.Fit.PStaticW, watts)
	}
	for comp, a := range doc.Fit.CoeffW {
		if math.Abs(a) > 0.05*watts {
			t.Errorf("coeff[%s] = %v, want ~0 for a constant-power meter", comp, a)
		}
	}
}

// TestCoRunComparePipeline is the co-run acceptance test: a sweep with a
// --corun pair plus solo baselines, stored and compared, must report
// interference metrics for the pair.
func TestCoRunComparePipeline(t *testing.T) {
	db := filepath.Join(t.TempDir(), "db.jsonl")
	runOK(t, "run",
		"--meter=mock",
		"--specs=int-alu,chase-l1",
		"--corun=int-alu+chase-l1",
		"--threads=1",
		"--reps=2", "--warmup=0",
		"--iter-scale=0.2",
		"--store="+db,
	)
	var infs []model.Interference
	out := runOK(t, "compare", "--db="+db)
	if err := json.Unmarshal(out.Bytes(), &infs); err != nil {
		t.Fatal(err)
	}
	if len(infs) != 1 {
		t.Fatalf("got %d interference entries, want 1", len(infs))
	}
	inf := infs[0]
	if inf.SpecA != "int-alu" || inf.SpecB != "chase-l1" {
		t.Errorf("pair = %s+%s, want int-alu+chase-l1", inf.SpecA, inf.SpecB)
	}
	if inf.SlowdownA <= 0 || inf.SlowdownB <= 0 {
		t.Errorf("slowdowns = %v/%v, want both positive", inf.SlowdownA, inf.SlowdownB)
	}
	if inf.CorunEnergyJ <= 0 || inf.SoloEnergyJ <= 0 {
		t.Errorf("energies = %v/%v, want both positive", inf.CorunEnergyJ, inf.SoloEnergyJ)
	}
	if got := inf.CorunEnergyJ - inf.SoloEnergyJ; math.Abs(got-inf.ExcessEnergyJ) > 1e-9 {
		t.Errorf("excess energy %v inconsistent with corun−solo = %v", inf.ExcessEnergyJ, got)
	}
}

func TestStoreSubcommandListFilterCompact(t *testing.T) {
	db := filepath.Join(t.TempDir(), "db.jsonl")
	runOK(t, "run", "--specs=int-alu", "--threads=1,2", "--reps=1", "--warmup=0",
		"--iter-scale=0.01", "--store="+db)
	// Re-run one configuration: the store accumulates a duplicate that list
	// dedups and compact physically removes.
	runOK(t, "run", "--specs=int-alu", "--threads=1", "--reps=1", "--warmup=0",
		"--iter-scale=0.01", "--store="+db)

	var listed []struct {
		Key    string `json:"key"`
		Result struct {
			Threads int `json:"threads"`
		} `json:"result"`
	}
	out := runOK(t, "store", "query", "--db="+db)
	if err := json.Unmarshal(out.Bytes(), &listed); err != nil {
		t.Fatal(err)
	}
	if len(listed) != 2 {
		t.Fatalf("listed %d records, want 2 after dedup", len(listed))
	}

	out = runOK(t, "store", "query", "--db="+db, "--where", "threads=2")
	listed = nil
	if err := json.Unmarshal(out.Bytes(), &listed); err != nil {
		t.Fatal(err)
	}
	if len(listed) != 1 || listed[0].Result.Threads != 2 {
		t.Fatalf("filtered listing = %+v, want only the t2 record", listed)
	}

	var compacted struct {
		Kept int `json:"kept"`
	}
	out = runOK(t, "store", "compact", "--db="+db)
	if err := json.Unmarshal(out.Bytes(), &compacted); err != nil {
		t.Fatal(err)
	}
	if compacted.Kept != 2 {
		t.Errorf("compact kept %d, want 2", compacted.Kept)
	}
}

func TestAnalysisSubcommandErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.jsonl")
	for _, tc := range []struct {
		args []string
		want string // a fragment of the error naming its reason
	}{
		{[]string{"store"}, "query|compact|add"}, // no verb
		{[]string{"analyze"}, "--db is required"},
		{[]string{"compare"}, "--db is required"},
		{[]string{"analyze", "--db=" + missing}, "no such file"}, // store does not exist
		{[]string{"compare", "--db=" + missing}, "no such file"},
		{[]string{"store", "add", "--db=" + missing, "--from=" + missing}, "no such file"}, // unreadable input
		{[]string{"analyze", "--db=testdata/store.jsonl", "--where", "placement=diagonal"}, `unknown placement "diagonal"`},
		{[]string{"analyze", "--db=testdata/store.jsonl", "--where", "threads=0"}, "not a positive integer"},
		{[]string{"analyze", "--db=testdata/store.jsonl", "--where", "spec=int-alu,threads=1"}, "rank-deficient"}, // underdetermined fit
		{[]string{"compare", "--db=testdata/store.jsonl", "--where", "spec=int-alu"}, "complete solo baselines"},  // no complete co-run baselines
	} {
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), tc.args, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

func TestParseIntList(t *testing.T) {
	tests := []struct {
		in      string
		want    []int
		wantErr bool
	}{
		{"1,2,4", []int{1, 2, 4}, false},
		{" 1 , 2 ", []int{1, 2}, false},
		{"2,1,2,1,2", []int{2, 1}, false}, // duplicates dropped, order kept
		{"0", nil, true},
		{"-3", nil, true},
		{"1,0,2", nil, true},
		{"1,-1", nil, true},
		{"", nil, true},
		{"x", nil, true},
		{"1,,2", []int{1, 2}, false},
	}
	for _, tc := range tests {
		got, err := parseIntList(tc.in)
		if tc.wantErr {
			if err == nil {
				t.Errorf("parseIntList(%q) = %v, want error", tc.in, got)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseIntList(%q): %v", tc.in, err)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseIntList(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestAnalyzeCountersGolden fits the checked-in counter store, whose powers
// follow P = 10 + 2·act(int-alu) + 5·act(dram) with activities planted as
// measured event rates (activity = rate / 1e9), and freezes the output. The
// store also holds one v1 record without counters, which the counter-based
// fit must skip and report.
func TestAnalyzeCountersGolden(t *testing.T) {
	out := runOK(t, "analyze", "--db=testdata/store-counters.jsonl", "--activity=counters")
	checkGolden(t, out.Bytes(), filepath.Join("testdata", "analyze-counters.golden.json"))

	var doc struct {
		Activity          string `json:"activity"`
		Observations      int    `json:"observations"`
		SkippedNoCounters int    `json:"skipped_no_counters"`
		Fit               struct {
			PStaticW float64            `json:"p_static_w"`
			CoeffW   map[string]float64 `json:"coeff_w_per_thread"`
			R2       float64            `json:"r2"`
		} `json:"fit"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Activity != "counters" {
		t.Errorf("activity = %q, want counters", doc.Activity)
	}
	if doc.Observations != 4 || doc.SkippedNoCounters != 1 {
		t.Errorf("observations/skipped = %d/%d, want 4/1", doc.Observations, doc.SkippedNoCounters)
	}
	if math.Abs(doc.Fit.PStaticW-10) > 1e-6 {
		t.Errorf("P_static = %v, want 10 (planted)", doc.Fit.PStaticW)
	}
	if math.Abs(doc.Fit.CoeffW["int-alu"]-2) > 1e-6 || math.Abs(doc.Fit.CoeffW["dram"]-5) > 1e-6 {
		t.Errorf("coefficients = %v, want int-alu:2 dram:5 (planted per GEvent/s)", doc.Fit.CoeffW)
	}
	if doc.Fit.R2 < 1-1e-9 {
		t.Errorf("R² = %v, want 1 for noiseless planted data", doc.Fit.R2)
	}
}

// TestAnalyzeActivityFlagErrors: a counter fit over a store with no counters
// must fail with guidance, and unknown activity sources are rejected.
func TestAnalyzeActivityFlagErrors(t *testing.T) {
	for _, args := range [][]string{
		{"analyze", "--db=testdata/store.jsonl", "--activity=counters"},
		{"analyze", "--db=testdata/store.jsonl", "--activity=vibes"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), args, &stdout, &stderr); err == nil {
			t.Errorf("run(%v): want error, got nil", args)
		}
	}
}
