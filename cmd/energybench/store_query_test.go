package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"energybench/internal/store"
)

// legacyListing renders records the way the pre-query CLI did: every
// record of an unfiltered query, in-memory Filter.Match, and the same JSON
// encoder.
func legacyListing(t *testing.T, db string, f store.Filter) []byte {
	t.Helper()
	recs, err := loadStore(db)
	if err != nil {
		t.Fatal(err)
	}
	var out []store.Record
	for _, rec := range recs {
		if f.Match(rec.Result) {
			out = append(out, rec)
		}
	}
	var buf bytes.Buffer
	if err := writeJSON(&buf, out); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStoreQueryMatchesLegacyLoad is the compatibility golden: `store query`
// over the checked-in v1 single-file store must emit byte-identical output to
// the legacy full-load listing, for the unfiltered view and every --where
// form.
func TestStoreQueryMatchesLegacyLoad(t *testing.T) {
	const db = "testdata/store.jsonl"
	cases := []struct {
		name string
		args []string
		f    store.Filter
	}{
		{"all", nil, store.Filter{}},
		{"where-spec", []string{"--where", "spec=int-alu"}, store.Filter{Specs: []string{"int-alu"}}},
		{"where-threads", []string{"--where", "threads=2"}, store.Filter{Threads: []int{2}}},
		{"where-meter", []string{"--where", "meter=synthetic"}, store.Filter{Meters: []string{"synthetic"}}},
		{"where-multi", []string{"--where", "spec=int-alu,threads=1"},
			store.Filter{Specs: []string{"int-alu"}, Threads: []int{1}}},
		{"where-miss", []string{"--where", "spec=no-such-kernel"}, store.Filter{Specs: []string{"no-such-kernel"}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := legacyListing(t, db, tc.f)
			got := runOK(t, append([]string{"store", "query", "--db=" + db}, tc.args...)...)
			if !bytes.Equal(got.Bytes(), want) {
				t.Errorf("store query diverged from the legacy listing:\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
			}
		})
	}
}

func TestStoreQueryWhereErrors(t *testing.T) {
	for _, args := range [][]string{
		{"store", "query"}, // no --db
		{"store", "query", "--db=testdata/store.jsonl", "--where", "spec"}, // no '='
		{"store", "query", "--db=testdata/store.jsonl", "--where", "flavor=mint"},
		{"store", "query", "--db=testdata/store.jsonl", "--where", "threads=zero"},
		{"store", "query", "--db=testdata/store.jsonl", "--where", "threads=-1"},
		{"store", "query", "--db=testdata/store.jsonl", "--where", "placement=diagonal"},
		{"store", "query", "--db=testdata/store.jsonl", "--keys", "--where", "spec=int-alu"},
		{"store", "nonsense"},
		{"store", "compact"},       // no --db
		{"store", "add", "--db=x"}, // no --from
		{"store", "bench"},         // no --db
		{"analyze", "--db=testdata/store.jsonl", "--where", "flavor=mint"},
		{"compare", "--db=testdata/store.jsonl", "--where", "flavor=mint"},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), args, &stdout, &stderr); err == nil {
			t.Errorf("run(%v): want error, got nil", args)
		}
	}
}

// TestRemovedSpellingsRejected runs every removed CLI spelling with
// arguments its old form accepted: the bare `store` form, the --specs/
// --threads/--placement filter flags on store query, analyze and compare,
// and the specs=/thread= --where aliases. Each must now fail, naming why.
func TestRemovedSpellingsRejected(t *testing.T) {
	const db = "testdata/store.jsonl"
	dir := t.TempDir()
	copyDB := filepath.Join(dir, "copy.jsonl")
	records := filepath.Join(dir, "records.json")
	data, err := os.ReadFile(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(copyDB, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(records, runOK(t, "store", "query", "--db="+db).Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	const verbs, flag, field = "query|compact|add|bench", "flag provided but not defined", "unknown field"
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"store", "--db=" + db}, verbs},
		{[]string{"store", "--db=" + db, "--specs=int-alu"}, verbs},
		{[]string{"store", "--db=" + copyDB, "--compact"}, verbs},
		{[]string{"store", "--db=" + filepath.Join(dir, "added.jsonl"), "--add=" + records}, verbs},
		{[]string{"store", "query", "--db=" + db, "--specs=int-alu"}, flag},
		{[]string{"store", "query", "--db=" + db, "--threads=1"}, flag},
		{[]string{"store", "query", "--db=" + db, "--placement=none"}, flag},
		{[]string{"analyze", "--db=" + db, "--specs=int-alu,chase-dram"}, flag},
		{[]string{"analyze", "--db=" + db, "--threads=1,2"}, flag},
		{[]string{"analyze", "--db=" + db, "--placement=none"}, flag},
		{[]string{"compare", "--db=" + db, "--specs=int-alu,chase-dram"}, flag},
		{[]string{"compare", "--db=" + db, "--threads=1"}, flag},
		{[]string{"compare", "--db=" + db, "--placement=none"}, flag},
		{[]string{"store", "query", "--db=" + db, "--where", "specs=int-alu"}, field},
		{[]string{"store", "query", "--db=" + db, "--where", "thread=1"}, field},
		{[]string{"analyze", "--db=" + db, "--where", "specs=int-alu,specs=chase-dram"}, field},
		{[]string{"compare", "--db=" + db, "--where", "thread=1"}, field},
	} {
		var stdout, stderr bytes.Buffer
		if err := run(context.Background(), tc.args, &stdout, &stderr); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("run(%v) = %v, want an error containing %q", tc.args, err, tc.want)
		}
	}
}

// resumeLog runs a sweep with --resume and returns the resume line it logs.
func resumeLog(t *testing.T, db string) string {
	t.Helper()
	var stdout, stderr bytes.Buffer
	args := []string{"run", "--specs=int-alu,chase-l1", "--threads=1,2", "--reps=1",
		"--warmup=0", "--iter-scale=0.01", "--store=" + db, "--resume"}
	if err := run(context.Background(), args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v): %v\nstderr: %s", args, err, stderr.String())
	}
	for _, line := range strings.Split(stderr.String(), "\n") {
		if strings.HasPrefix(line, "resume:") {
			return line
		}
	}
	t.Fatalf("no resume line in stderr: %s", stderr.String())
	return ""
}

// TestResumeKeySetSurvivesShardMigration is the second compatibility golden:
// a sweep resumed against a single-file store must see the identical key set
// after `store compact --shard` migrates it — zero trials to re-run, and
// `store query --keys` byte-identical across the migration.
func TestResumeKeySetSurvivesShardMigration(t *testing.T) {
	db := filepath.Join(t.TempDir(), "db.jsonl")
	runOK(t, "run", "--specs=int-alu,chase-l1", "--threads=1,2", "--reps=1",
		"--warmup=0", "--iter-scale=0.01", "--store="+db)

	if line := resumeLog(t, db); !strings.Contains(line, "skipped 4") || !strings.Contains(line, "0 to run") {
		t.Fatalf("pre-migration resume = %q, want all 4 trials skipped", line)
	}
	keysBefore := runOK(t, "store", "query", "--db="+db, "--keys")

	var compacted struct {
		Kept     int  `json:"kept"`
		Sharded  bool `json:"sharded"`
		Segments int  `json:"segments"`
	}
	out := runOK(t, "store", "compact", "--db="+db, "--shard")
	if err := json.Unmarshal(out.Bytes(), &compacted); err != nil {
		t.Fatal(err)
	}
	if compacted.Kept != 4 || !compacted.Sharded || compacted.Segments < 1 {
		t.Fatalf("compact --shard = %+v, want 4 records in a sharded store", compacted)
	}
	if fi, err := os.Stat(db); err != nil || !fi.IsDir() {
		t.Fatalf("store is not a directory after --shard: %v %v", fi, err)
	}

	if line := resumeLog(t, db); !strings.Contains(line, "skipped 4") || !strings.Contains(line, "0 to run") {
		t.Errorf("post-migration resume = %q, want all 4 trials skipped", line)
	}
	keysAfter := runOK(t, "store", "query", "--db="+db, "--keys")
	if !bytes.Equal(keysBefore.Bytes(), keysAfter.Bytes()) {
		t.Errorf("migration changed the resume key set:\nbefore:\n%s\nafter:\n%s", keysBefore.Bytes(), keysAfter.Bytes())
	}
}

// TestRunShardedStoreAnalyze drives the full pipeline against a sharded
// store: run writes segments directly, resume reads the sidecar index, and
// analyze consumes the streaming query.
func TestRunShardedStoreAnalyze(t *testing.T) {
	db := filepath.Join(t.TempDir(), "results-store")
	runOK(t, "run", "--specs=int-alu,chase-l1", "--threads=1,2", "--reps=1",
		"--warmup=0", "--iter-scale=0.01", "--store="+db)
	if _, err := os.Stat(filepath.Join(db, "MANIFEST.json")); err != nil {
		t.Fatalf("run --store=<dir> did not create a sharded store: %v", err)
	}

	if line := resumeLog(t, db); !strings.Contains(line, "0 to run") {
		t.Errorf("sharded resume = %q, want nothing to run", line)
	}

	var doc struct {
		Observations int `json:"observations"`
	}
	out := runOK(t, "analyze", "--db="+db, "--where", "spec=int-alu,spec=chase-l1")
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Observations != 4 {
		t.Errorf("analyze over the sharded store saw %d observations, want 4", doc.Observations)
	}
}

// TestStoreBenchSmall exercises the scale-smoke command end to end at a size
// cheap enough for the unit suite; its internal assertions (dedup counts,
// last-wins values, key stability across compaction) do the heavy lifting.
func TestStoreBenchSmall(t *testing.T) {
	db := filepath.Join(t.TempDir(), "bench-store")
	out := runOK(t, "store", "bench", "--db="+db, "--records=800", "--batch=64")
	var doc struct {
		Records     int  `json:"records"`
		UniqueKeys  int  `json:"unique_keys"`
		Sharded     bool `json:"sharded"`
		CompactKept int  `json:"compact_kept"`
	}
	if err := json.Unmarshal(out.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if !doc.Sharded || doc.Records != 800 || doc.UniqueKeys != 200 || doc.CompactKept != 200 {
		t.Errorf("store bench doc = %+v, want sharded, 800 records, 200 unique", doc)
	}
	// Refuses to clobber an existing path.
	var stdout, stderr bytes.Buffer
	if err := run(context.Background(), []string{"store", "bench", "--db=" + db, "--records=10"}, &stdout, &stderr); err == nil {
		t.Error("store bench over an existing path: want error, got nil")
	}
}
