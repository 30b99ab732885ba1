package store

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"energybench/internal/harness"
	"energybench/internal/meter"
	"energybench/internal/stats"
)

func mkResult(spec string, threads int, placement string) harness.Result {
	return harness.Result{
		Spec:      spec,
		Threads:   threads,
		Iters:     1000,
		Placement: harness.Placement(placement),
		Meter:     "mock",
		EnergyJ:   stats.Summary{N: 3, Mean: 10},
		TimeS:     stats.Summary{N: 3, Mean: 1},
		PowerW:    stats.Summary{N: 3, Mean: 10},
	}
}

// appendTo appends results to the store at path, creating it if needed.
func appendTo(t *testing.T, path string, results ...harness.Result) {
	t.Helper()
	st, err := Create(path)
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

// load drains an unfiltered query of the store at path.
func load(path string) ([]Record, error) {
	st, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	var out []Record
	for rec, err := range st.Query(Filter{}) {
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// keysOf returns the configuration-key set of the store at path.
func keysOf(path string) (map[string]bool, error) {
	st, err := Open(path)
	if err != nil {
		return nil, err
	}
	defer st.Close()
	return st.Keys()
}

func TestAppendLoadRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.jsonl")
	in := []harness.Result{
		mkResult("int-alu", 1, "none"),
		mkResult("int-alu", 2, "none"),
		mkResult("chase-l1", 1, "compact"),
	}
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	n, err := st.Append(in)
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("appended %d records, want 3", n)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	recs, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("loaded %d records, want 3", len(recs))
	}
	for i, rec := range recs {
		if rec.V != SchemaVersion {
			t.Errorf("record %d schema = %d, want %d", i, rec.V, SchemaVersion)
		}
		if rec.Key != harness.ResultKey(in[i]) {
			t.Errorf("record %d key = %q, want %q", i, rec.Key, harness.ResultKey(in[i]))
		}
		if rec.SavedAt.IsZero() {
			t.Errorf("record %d has zero timestamp", i)
		}
		if !reflect.DeepEqual(rec.Result, in[i]) {
			t.Errorf("record %d result round-trip mismatch:\ngot  %+v\nwant %+v", i, rec.Result, in[i])
		}
	}
}

func TestLoadDedupsLastWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.jsonl")
	first := mkResult("int-alu", 1, "none")
	appendTo(t, path, first, mkResult("chase-l1", 1, "none"))
	// Re-measure the same configuration with a different value: the later
	// record must replace the earlier one, in the earlier one's position.
	second := first
	second.EnergyJ.Mean = 99
	appendTo(t, path, second)
	recs, err := load(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("loaded %d records, want 2 after dedup", len(recs))
	}
	if recs[0].Result.Spec != "int-alu" || recs[0].Result.EnergyJ.Mean != 99 {
		t.Errorf("dedup kept the stale record: %+v", recs[0].Result)
	}
	if recs[1].Result.Spec != "chase-l1" {
		t.Errorf("dedup reordered records: %+v", recs[1].Result)
	}
}

func TestKeyDistinguishesConfigurations(t *testing.T) {
	base := mkResult("int-alu", 1, "none")
	variants := []func(*harness.Result){
		func(r *harness.Result) { r.Spec = "fp-mac" },
		func(r *harness.Result) { r.Threads = 2 },
		func(r *harness.Result) { r.Placement = "compact" },
		func(r *harness.Result) { r.Meter = "rapl" },
		func(r *harness.Result) { r.Iters = 2000 },
		func(r *harness.Result) { r.SpecB = "chase-l1"; r.ThreadsB = 1; r.ItersB = 500 },
	}
	seen := map[string]bool{harness.ResultKey(base): true}
	for i, mut := range variants {
		r := base
		mut(&r)
		k := harness.ResultKey(r)
		if seen[k] {
			t.Errorf("variant %d collides with a previous key %q", i, k)
		}
		seen[k] = true
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing.jsonl")); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("want not-exist error for missing store, got %v", err)
	}
}

func TestLoadRejectsNewerSchemaAndCorruption(t *testing.T) {
	dir := t.TempDir()

	future := filepath.Join(dir, "future.jsonl")
	if err := os.WriteFile(future, []byte(`{"v":999,"key":"k","result":{}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(future); err == nil || !strings.Contains(err.Error(), "v999") {
		t.Errorf("want schema-version error, got %v", err)
	}

	corrupt := filepath.Join(dir, "corrupt.jsonl")
	good := `{"v":1,"key":"k","result":{"spec":"x"}}` + "\n"
	if err := os.WriteFile(corrupt, []byte(good+"{not json}\n"+good), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := load(corrupt); err == nil {
		t.Error("want error for corrupt mid-file line, got nil")
	}
}

func TestLoadToleratesTornFinalLine(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.jsonl")
	appendTo(t, path, mkResult("int-alu", 1, "none"))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"key":"torn","resu`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	recs, err := load(path)
	if err != nil {
		t.Fatalf("torn final line must be tolerated: %v", err)
	}
	if len(recs) != 1 {
		t.Errorf("loaded %d records, want 1 (torn line skipped)", len(recs))
	}
}

// TestAppendAfterTornLineRepairs is a regression test: appending to a store
// whose last line was torn by a crash must not concatenate the new record
// onto the partial line (which silently lost it, or poisoned the store for
// strict mid-file corruption detection).
func TestAppendAfterTornLineRepairs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.jsonl")
	appendTo(t, path, mkResult("int-alu", 1, "none"))
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":1,"key":"torn","resu`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	appendTo(t, path, mkResult("int-alu", 2, "none"))
	recs, err := load(path)
	if err != nil {
		t.Fatalf("store unreadable after append-over-torn-line: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("loaded %d records, want both the pre-crash and post-crash records", len(recs))
	}
	if recs[0].Result.Threads != 1 || recs[1].Result.Threads != 2 {
		t.Errorf("records = t%d, t%d; want t1 then t2", recs[0].Result.Threads, recs[1].Result.Threads)
	}

	// A store that is nothing but one torn line repairs to empty and accepts
	// the append.
	junk := filepath.Join(t.TempDir(), "junk.jsonl")
	if err := os.WriteFile(junk, []byte("{partial"), 0o644); err != nil {
		t.Fatal(err)
	}
	appendTo(t, junk, mkResult("fp-mac", 1, "none"))
	if recs, err := load(junk); err != nil || len(recs) != 1 {
		t.Errorf("junk-only store after append: %v, %d records, want 1", err, len(recs))
	}
}

func TestCompactRewritesDeduped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.jsonl")
	r := mkResult("int-alu", 1, "none")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := st.Append([]harness.Result{r}); err != nil {
			t.Fatal(err)
		}
	}
	kept, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if kept != 1 {
		t.Errorf("compact kept %d records, want 1", kept)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(b), "\n"); lines != 1 {
		t.Errorf("compacted file has %d lines, want 1", lines)
	}
	if recs, err := load(path); err != nil || len(recs) != 1 {
		t.Errorf("compacted store unreadable: %v, %d records", err, len(recs))
	}

	// The handle that appended before compacting keeps appending to the
	// compacted file, not to the one the rename replaced.
	if _, err := st.Append([]harness.Result{mkResult("fp-mac", 1, "none")}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if recs, err := load(path); err != nil || len(recs) != 2 {
		t.Errorf("append after compact: %v, %d records, want 2", err, len(recs))
	}
}

func TestFilterMatch(t *testing.T) {
	solo := mkResult("int-alu", 2, "scatter")
	corun := mkResult("int-alu", 1, "compact")
	corun.SpecB = "chase-dram"
	corun.ThreadsB = 1

	tests := []struct {
		name string
		f    Filter
		r    harness.Result
		want bool
	}{
		{"empty-matches-all", Filter{}, solo, true},
		{"spec-hit", Filter{Specs: []string{"int-alu"}}, solo, true},
		{"spec-miss", Filter{Specs: []string{"fp-mac"}}, solo, false},
		{"spec-b-hit", Filter{Specs: []string{"chase-dram"}}, corun, true},
		{"threads-hit", Filter{Threads: []int{1, 2}}, solo, true},
		{"threads-miss", Filter{Threads: []int{4}}, solo, false},
		{"placement-hit", Filter{Placements: []string{"scatter"}}, solo, true},
		{"placement-miss", Filter{Placements: []string{"none"}}, solo, false},
		{"all-dimensions", Filter{Specs: []string{"int-alu"}, Threads: []int{2}, Placements: []string{"scatter"}}, solo, true},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := tc.f.Match(tc.r); got != tc.want {
				t.Errorf("Match = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestResultsAppliesFilter(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.jsonl")
	in := []harness.Result{
		mkResult("int-alu", 1, "none"),
		mkResult("int-alu", 2, "none"),
		mkResult("chase-l1", 1, "none"),
	}
	appendTo(t, path, in...)
	got := openCollect(t, path, Filter{Specs: []string{"int-alu"}})
	if len(got) != 2 {
		t.Fatalf("filtered to %d results, want 2", len(got))
	}
	for _, rec := range got {
		if rec.Result.Spec != "int-alu" {
			t.Errorf("filter leaked %q", rec.Result.Spec)
		}
	}
}

// TestLoadV1RecordsUnderV2 is the schema-compat test: a store written by the
// v1 build (records without counters) must load under the v2 reader exactly
// as before, mixed freely with v2 records carrying measured activity
// vectors — an accumulated dataset survives the schema bump.
func TestLoadV1RecordsUnderV2(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.jsonl")
	v1 := `{"v":1,"key":"int-alu||t1+0|none|mock|i1000+0","saved_at":"2026-07-01T00:00:00Z","result":{"spec":"int-alu","component":"int-alu","threads":1,"iters":1000,"placement":"none","meter":"mock","power_w_summary":{"mean":12}}}` + "\n"
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}

	// Append a v2 record with counters on top of the v1 file.
	withCounters := mkResult("chase-dram", 1, "none")
	withCounters.Counters = &harness.Counters{
		Backend: "mock",
		Events:  []harness.CounterEvent{{Event: "llc-misses", TotalMean: 5.5e6, RateHzMean: 5.5e7}},
		Threads: []harness.CounterThread{{CPU: -1, TotalMean: []float64{5.5e6}, RateHzMean: []float64{5.5e7}}},
		Reps:    2,
	}
	appendTo(t, path, withCounters)

	recs, err := load(path)
	if err != nil {
		t.Fatalf("mixed v1/v2 store failed to load: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("loaded %d records, want 2", len(recs))
	}
	if recs[0].V != 1 || recs[0].Result.Counters != nil {
		t.Errorf("v1 record = v%d counters=%v, want v1 with no counters", recs[0].V, recs[0].Result.Counters)
	}
	if recs[1].V != SchemaVersion {
		t.Errorf("appended record schema = %d, want %d", recs[1].V, SchemaVersion)
	}
	c := recs[1].Result.Counters
	if c == nil || len(c.Events) != 1 || c.Events[0].Event != "llc-misses" || c.Events[0].RateHzMean != 5.5e7 {
		t.Errorf("counters did not round-trip: %+v", c)
	}
}

// TestLoadV2RecordsUnderV3 extends the compat guarantee one schema further: a
// store written by the v2 build (records with counters but no series) must
// load under the v3 reader unchanged, mixed freely with v3 records carrying a
// sampling interval and per-repetition time-resolved series.
func TestLoadV2RecordsUnderV3(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.jsonl")
	v2 := `{"v":2,"key":"chase-l1||t1+0|none|mock|i1000+0","saved_at":"2026-07-15T00:00:00Z","result":{"spec":"chase-l1","component":"l1","threads":1,"iters":1000,"placement":"none","meter":"mock","power_w_summary":{"mean":20},"counters":{"backend":"mock","reps":2,"events":[{"event":"cycles","total_mean":1e9,"rate_hz_mean":3e9}]}}}` + "\n"
	if err := os.WriteFile(path, []byte(v2), 0o644); err != nil {
		t.Fatal(err)
	}

	// Append a v3 record carrying an in-trial sampling series on top.
	withSeries := mkResult("int-alu", 2, "compact")
	withSeries.SampleInterval = 10 * time.Millisecond
	withSeries.Samples = []harness.Sample{{
		EnergyJ:    1.5,
		TimeS:      0.03,
		MeterTimeS: 0.031,
		PowerW:     48.4,
		Series: &meter.Series{
			StartAt:   time.Date(2026, 8, 1, 0, 0, 0, 0, time.UTC),
			IntervalS: 0.01,
			Events:    []string{"cycles"},
			Points: []meter.SeriesPoint{
				{TS: 0.01, DomainUJ: []uint64{500000}, PowerW: 50, Counts: []float64{3e7}},
				{TS: 0.02, DomainUJ: []uint64{480000}, PowerW: 48, Counts: []float64{2.9e7}},
			},
		},
	}}
	appendTo(t, path, withSeries)

	recs, err := load(path)
	if err != nil {
		t.Fatalf("mixed v2/v3 store failed to load: %v", err)
	}
	if len(recs) != 2 {
		t.Fatalf("loaded %d records, want 2", len(recs))
	}
	old := recs[0]
	if old.V != 2 || old.Result.SampleInterval != 0 {
		t.Errorf("v2 record = v%d interval=%v, want v2 with no sample interval", old.V, old.Result.SampleInterval)
	}
	if c := old.Result.Counters; c == nil || len(c.Events) != 1 || c.Events[0].Event != "cycles" {
		t.Errorf("v2 counters did not survive the v3 reader: %+v", c)
	}
	neu := recs[1]
	if neu.V != SchemaVersion {
		t.Errorf("appended record schema = %d, want %d", neu.V, SchemaVersion)
	}
	if neu.Result.SampleInterval != 10*time.Millisecond {
		t.Errorf("sample interval = %v, want 10ms", neu.Result.SampleInterval)
	}
	if len(neu.Result.Samples) != 1 || neu.Result.Samples[0].Series == nil {
		t.Fatalf("series missing from round-trip: %+v", neu.Result.Samples)
	}
	if !reflect.DeepEqual(neu.Result.Samples[0], withSeries.Samples[0]) {
		t.Errorf("sample did not round-trip:\n got %+v\nwant %+v", neu.Result.Samples[0], withSeries.Samples[0])
	}
}
