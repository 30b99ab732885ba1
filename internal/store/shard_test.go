package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"energybench/internal/harness"
)

// collect drains a query into a slice, failing the test on iterator errors.
func collect(t *testing.T, st *Store, f Filter) []Record {
	t.Helper()
	var out []Record
	for rec, err := range st.Query(f) {
		if err != nil {
			t.Fatalf("query: %v", err)
		}
		out = append(out, rec)
	}
	return out
}

// openCollect opens the store at path just for one query.
func openCollect(t *testing.T, path string, f Filter) []Record {
	t.Helper()
	st, err := Open(path)
	if err != nil {
		t.Fatalf("open %s: %v", path, err)
	}
	defer st.Close()
	return collect(t, st, f)
}

func TestCreateDetectsLayoutByExtension(t *testing.T) {
	dir := t.TempDir()

	file, err := Create(filepath.Join(dir, "db.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer file.Close()
	if file.sharded {
		t.Error(".jsonl path created a sharded store, want single-file")
	}

	sharded, err := Create(filepath.Join(dir, "results-store"))
	if err != nil {
		t.Fatal(err)
	}
	defer sharded.Close()
	if !sharded.sharded {
		t.Error("extension-less path created a single-file store, want sharded")
	}
	if _, err := os.Stat(filepath.Join(dir, "results-store", manifestName)); err != nil {
		t.Errorf("sharded store has no manifest: %v", err)
	}

	// Open auto-detects both layouts, and refuses to adopt a random
	// non-empty directory.
	if st, err := Open(filepath.Join(dir, "results-store")); err != nil || !st.sharded {
		t.Errorf("Open(dir) = %+v, %v; want sharded store", st, err)
	} else {
		st.Close()
	}
	junk := filepath.Join(dir, "not-a-store")
	os.MkdirAll(junk, 0o755)
	os.WriteFile(filepath.Join(junk, "something.txt"), []byte("hi"), 0o644)
	if _, err := Open(junk); err == nil || !strings.Contains(err.Error(), "not a sharded store") {
		t.Errorf("Open over a foreign directory = %v, want refusal", err)
	}
}

// TestShardedQueryMatchesFileLayout writes the same result sequence —
// duplicates included — through both layouts and requires identical query
// views: same keys, same order, same surviving results.
func TestShardedQueryMatchesFileLayout(t *testing.T) {
	dir := t.TempDir()
	dup := mkResult("int-alu", 1, "none")
	rewrite := dup
	rewrite.EnergyJ.Mean = 77
	in := []harness.Result{
		dup,
		mkResult("int-alu", 2, "scatter"),
		mkResult("chase-l1", 1, "compact"),
		rewrite, // same key as dup: must win, in dup's position
	}

	filePath := filepath.Join(dir, "db.jsonl")
	shardPath := filepath.Join(dir, "db-store")
	for _, path := range []string{filePath, shardPath} {
		st, err := Create(path)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Append(in); err != nil {
			t.Fatal(err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
	}

	fileRecs := openCollect(t, filePath, Filter{})
	shardRecs := openCollect(t, shardPath, Filter{})
	if len(fileRecs) != 3 || len(shardRecs) != 3 {
		t.Fatalf("file=%d sharded=%d records, want 3 each after dedup", len(fileRecs), len(shardRecs))
	}
	for i := range fileRecs {
		if fileRecs[i].Key != shardRecs[i].Key {
			t.Errorf("record %d key: file=%q sharded=%q", i, fileRecs[i].Key, shardRecs[i].Key)
		}
		if !reflect.DeepEqual(fileRecs[i].Result, shardRecs[i].Result) {
			t.Errorf("record %d result diverges between layouts", i)
		}
	}
	if shardRecs[0].Result.EnergyJ.Mean != 77 {
		t.Errorf("sharded dedup kept the stale record: %+v", shardRecs[0].Result)
	}

	// The filtered views must agree too.
	f := Filter{Specs: []string{"int-alu"}, Threads: []int{2}}
	if got, want := openCollect(t, shardPath, f), openCollect(t, filePath, f); len(got) != 1 || len(want) != 1 || got[0].Key != want[0].Key {
		t.Errorf("filtered views diverge: sharded=%d file=%d", len(got), len(want))
	}
}

func TestShardedSegmentRollAndManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db-store")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	st.segTarget = 256 // force a roll every record or two
	var want []string
	for i := 1; i <= 8; i++ {
		r := mkResult("int-alu", i, "none")
		if _, err := st.Append([]harness.Result{r}); err != nil {
			t.Fatal(err)
		}
		want = append(want, harness.ResultKey(r))
	}
	if st.Segments() < 3 {
		t.Errorf("got %d segments under a 256-byte target, want several", st.Segments())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The manifest must list every segment in order and carry record counts
	// for the sealed ones.
	data, err := os.ReadFile(filepath.Join(path, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, seg := range man.Segments {
		if !strings.HasPrefix(seg.Name, segPrefix) || !strings.HasSuffix(seg.Name, segSuffix) {
			t.Errorf("manifest segment name %q is malformed", seg.Name)
		}
		total += seg.Records
	}
	if total != len(want) {
		t.Errorf("manifest record counts sum to %d, want %d", total, len(want))
	}

	recs := openCollect(t, path, Filter{})
	if len(recs) != len(want) {
		t.Fatalf("query over rolled segments yielded %d records, want %d", len(recs), len(want))
	}
	for i, rec := range recs {
		if rec.Key != want[i] {
			t.Errorf("record %d = %q, want %q (order across segments)", i, rec.Key, want[i])
		}
	}
}

func TestShardedToleratesTornSegmentTailAndRepairs(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db-store")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append([]harness.Result{mkResult("int-alu", 1, "none")}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the active segment mid-record, as a crash would.
	seg := filepath.Join(path, "seg-00000001.jsonl")
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"v":2,"key":"torn","resu`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if recs := openCollect(t, path, Filter{}); len(recs) != 1 {
		t.Fatalf("torn segment tail: got %d records, want 1", len(recs))
	}

	// Appending over the torn tail must truncate it, not concatenate.
	st, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append([]harness.Result{mkResult("int-alu", 2, "none")}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	recs := openCollect(t, path, Filter{})
	if len(recs) != 2 {
		t.Fatalf("after append-over-torn-tail: %d records, want 2", len(recs))
	}
	if recs[0].Result.Threads != 1 || recs[1].Result.Threads != 2 {
		t.Errorf("records = t%d, t%d; want t1 then t2", recs[0].Result.Threads, recs[1].Result.Threads)
	}
}

func TestShardedRebuildsMissingOrStaleSidecar(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db-store")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	in := []harness.Result{mkResult("int-alu", 1, "none"), mkResult("chase-l1", 1, "none")}
	if _, err := st.Append(in); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Deleting the sidecar must not lose anything: the segment is the
	// source of truth.
	sidecar := filepath.Join(path, "seg-00000001.keys")
	if err := os.Remove(sidecar); err != nil {
		t.Fatal(err)
	}
	st, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 || !keys[harness.ResultKey(in[0])] || !keys[harness.ResultKey(in[1])] {
		t.Errorf("keys after sidecar loss = %v, want both configurations", keys)
	}
	st.Close()

	// A sidecar truncated mid-line is trusted only up to the tear; appending
	// through the store repairs and persists it.
	data, err := os.ReadFile(sidecar)
	if err == nil && len(data) > 3 {
		os.WriteFile(sidecar, data[:len(data)-3], 0o644)
	}
	st, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Append([]harness.Result{mkResult("fp-mac", 1, "none")}); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if recs := openCollect(t, path, Filter{}); len(recs) != 3 {
		t.Errorf("after stale-sidecar append: %d records, want 3", len(recs))
	}
}

func TestShardedCompactDropsDuplicatesAndOldSegments(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db-store")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	st.segTarget = 512
	r := mkResult("int-alu", 1, "none")
	other := mkResult("chase-l1", 1, "none")
	for i := 0; i < 6; i++ {
		r.EnergyJ.Mean = float64(i)
		if _, err := st.Append([]harness.Result{r, other}); err != nil {
			t.Fatal(err)
		}
	}
	before, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	segsBefore := st.Segments()

	kept, err := st.Compact()
	if err != nil {
		t.Fatal(err)
	}
	if kept != 2 {
		t.Errorf("compact kept %d, want 2", kept)
	}
	if st.Segments() >= segsBefore {
		t.Errorf("compact left %d segments (was %d), want fewer", st.Segments(), segsBefore)
	}
	after, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("compact changed the key set:\nbefore %v\nafter  %v", before, after)
	}
	recs := collect(t, st, Filter{})
	if len(recs) != 2 || recs[0].Result.EnergyJ.Mean != 5 {
		t.Errorf("compact lost last-wins value: %+v", recs)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Old generation's files must be gone; only live segments and their
	// sidecars (plus the manifest) remain.
	entries, err := os.ReadDir(path)
	if err != nil {
		t.Fatal(err)
	}
	st, err = Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if want := st.Segments()*2 + 1; len(entries) != want {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("store directory holds %v, want %d live files", names, want)
	}

	// The compacted store keeps accepting appends.
	if _, err := st.Append([]harness.Result{mkResult("fp-mac", 1, "none")}); err != nil {
		t.Fatal(err)
	}
	if recs := collect(t, st, Filter{}); len(recs) != 3 {
		t.Errorf("append after compact: %d records, want 3", len(recs))
	}
}

// TestShardMigratesFilePreservingKeysAndBytes proves the --resume contract
// across `store compact --shard`: identical key sets and identical surviving
// record bytes before and after migration, v1 records included.
func TestShardMigratesFilePreservingKeysAndBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.jsonl")
	v1 := `{"v":1,"key":"int-alu||t1+0|none|mock|i1000+0","saved_at":"2026-07-01T00:00:00Z","result":{"spec":"int-alu","component":"int-alu","threads":1,"iters":1000,"placement":"none","meter":"mock","power_w_summary":{"mean":12}}}` + "\n"
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	appendTo(t, path, mkResult("chase-dram", 1, "none"), mkResult("chase-dram", 1, "none"))
	keysBefore, err := keysOf(path)
	if err != nil {
		t.Fatal(err)
	}
	recsBefore := openCollect(t, path, Filter{})

	kept, err := Shard(path)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 2 {
		t.Errorf("Shard kept %d records, want 2", kept)
	}
	fi, err := os.Stat(path)
	if err != nil || !fi.IsDir() {
		t.Fatalf("post-migration path is not a directory: %v %v", fi, err)
	}
	if _, err := os.Stat(path + ".pre-shard"); !os.IsNotExist(err) {
		t.Errorf("pre-shard backup left behind: %v", err)
	}

	keysAfter, err := keysOf(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(keysBefore, keysAfter) {
		t.Errorf("migration changed the resume key set:\nbefore %v\nafter  %v", keysBefore, keysAfter)
	}
	recsAfter := openCollect(t, path, Filter{})
	if !reflect.DeepEqual(recsBefore, recsAfter) {
		t.Errorf("migration changed the record view:\nbefore %+v\nafter  %+v", recsBefore, recsAfter)
	}
	if recsAfter[0].V != 1 {
		t.Errorf("v1 record rewritten as v%d; migration must preserve bytes", recsAfter[0].V)
	}

	// Migrating an already-sharded store is just a compact.
	if kept, err := Shard(path); err != nil || kept != 2 {
		t.Errorf("Shard over sharded store = %d, %v; want 2, nil", kept, err)
	}
}

func TestShardedKeysWithoutReadingRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db-store")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	in := []harness.Result{mkResult("int-alu", 1, "none"), mkResult("int-alu", 2, "none")}
	if _, err := st.Append(in); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt a record body but leave its envelope line structure intact at
	// the sidecar level: Keys must still work because it reads only the
	// sidecar index, never record payloads.
	seg := filepath.Join(path, "seg-00000001.jsonl")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	garbled := strings.Replace(string(data), `"spec":"int-alu"`, `"spec":"garbage!"`, 1)
	if err := os.WriteFile(seg, []byte(garbled), 0o644); err != nil {
		t.Fatal(err)
	}
	keys, err := keysOf(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Errorf("Keys over sidecars = %d entries, want 2", len(keys))
	}
}

func TestFilterKeyPushdownAgreesWithMatch(t *testing.T) {
	results := []harness.Result{
		mkResult("int-alu", 1, "none"),
		mkResult("fp-mac", 2, "scatter"),
		mkResult("chase-l1", 4, "compact"),
	}
	corun := mkResult("int-alu", 2, "none")
	corun.SpecB = "chase-dram"
	corun.ThreadsB = 2
	corun.ItersB = 500
	results = append(results, corun)

	filters := []Filter{
		{},
		{Specs: []string{"int-alu"}},
		{Specs: []string{"chase-dram"}}, // matches via SpecB
		{Threads: []int{2}},
		{Placements: []string{"scatter"}},
		{Meters: []string{"mock"}},
		{Meters: []string{"rapl"}},
		{Keys: []string{harness.ResultKey(results[0])}},
		{Specs: []string{"int-alu"}, Threads: []int{1}, Placements: []string{"none"}},
	}
	for fi, f := range filters {
		for ri, r := range results {
			match := f.Match(r)
			keyMatch := f.MatchKey(harness.ResultKey(r))
			// MatchKey is a conservative pre-filter: it may admit more than
			// Match, but must never reject a record Match accepts.
			if match && !keyMatch {
				t.Errorf("filter %d rejected key of matching result %d", fi, ri)
			}
			// For these filters the key carries every filtered field, so the
			// verdicts should actually coincide.
			if keyMatch != match {
				t.Errorf("filter %d: MatchKey=%v Match=%v for result %d", fi, keyMatch, match, ri)
			}
		}
	}

	// A foreign-format key must be admitted (fail open), never dropped.
	if !(Filter{Specs: []string{"x"}}).MatchKey("some-unknown-key-format") {
		t.Error("MatchKey rejected an unparseable key; it must fail open")
	}
}

// TestShardedKeyFilterPointLookup: a Filter on one key is the point
// lookup — the key's winning record, or nothing for an absent key.
func TestShardedKeyFilterPointLookup(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db-store")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r := mkResult("int-alu", 1, "none")
	updated := r
	updated.PowerW.Mean = 123
	if _, err := st.Append([]harness.Result{r, mkResult("fp-mac", 1, "none"), updated}); err != nil {
		t.Fatal(err)
	}
	got := collect(t, st, Filter{Keys: []string{harness.ResultKey(r)}})
	if len(got) != 1 {
		t.Fatalf("key lookup = %d records, want 1", len(got))
	}
	if got[0].Result.PowerW.Mean != 123 {
		t.Errorf("key lookup returned the stale write: %+v", got[0].Result.PowerW)
	}
	if miss := collect(t, st, Filter{Keys: []string{"no|such|t0+0|key|x|i0+0"}}); len(miss) != 0 {
		t.Errorf("key lookup of an absent key = %d records, want none", len(miss))
	}
}

func TestOpenRejectsNewerManifest(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db-store")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	st.Close()
	man := filepath.Join(path, manifestName)
	if err := os.WriteFile(man, []byte(`{"format":99,"schema":2,"segments":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "format 99") {
		t.Errorf("newer manifest format = %v, want refusal", err)
	}
	if err := os.WriteFile(man, []byte(`{"format":1,"schema":999,"segments":[]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "v999") {
		t.Errorf("newer store schema = %v, want refusal", err)
	}
}

// TestShardedRebuildsOverflowingSidecar: a sidecar length so large that
// offset+length wraps around is corrupt, not a huge record; reads rebuild
// that entry from the segment instead of slicing with the wrapped bound.
func TestShardedRebuildsOverflowingSidecar(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db-store")
	in := []harness.Result{mkResult("int-alu", 1, "none"), mkResult("chase-l1", 1, "none")}
	appendTo(t, path, in...)
	sidecar := filepath.Join(path, "seg-00000001.keys")
	data, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(string(data), "\n")
	off, _, _ := strings.Cut(lines[1], " ")
	lines[1] = fmt.Sprintf("%s %d %s\n", off, math.MaxInt64, harness.ResultKey(in[1]))
	if err := os.WriteFile(sidecar, []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}

	recs := openCollect(t, path, Filter{})
	if len(recs) != 2 || !reflect.DeepEqual(recs[1].Result, in[1]) {
		t.Fatalf("query over the overflowing sidecar = %d records, want both stored", len(recs))
	}
	appendTo(t, path, mkResult("fp-mac", 1, "none"))
	if recs := openCollect(t, path, Filter{}); len(recs) != 3 {
		t.Errorf("after an append repaired the sidecar: %d records, want 3", len(recs))
	}
}

// FuzzSidecar: the sidecar parser never panics, its entries tile the
// segment contiguously from offset 0 and stay inside the clean prefix, and
// it reports the sidecar whole only when every line became an entry.
func FuzzSidecar(f *testing.F) {
	f.Add([]byte("0 446 a\n447 446 b\n"), int64(894))
	f.Add([]byte("0 446 a\n447 9223372036854775807 b\n"), int64(894))
	f.Add([]byte("0 10 k\n11 5"), int64(100))
	f.Add([]byte("0 -1 k\n"), int64(100))
	f.Add([]byte("9223372036854775807 1 k\n"), int64(math.MaxInt64))
	f.Add([]byte(""), int64(0))
	f.Fuzz(func(t *testing.T, data []byte, clean int64) {
		if clean < 0 {
			clean = -(clean + 1) // a segment's clean length is never negative
		}
		entries, covered, whole := parseSidecar(data, clean)
		var next int64
		for i, e := range entries {
			// next <= clean, so clean-e.off-1 cannot overflow.
			if e.off != next || e.n <= 0 || int64(e.n) > clean-e.off-1 {
				t.Fatalf("entry %d = [%d,+%d) does not continue the tiling at %d inside clean %d", i, e.off, e.n, next, clean)
			}
			next = e.off + int64(e.n) + 1
		}
		if covered != next || covered > clean {
			t.Fatalf("covered = %d, want the entries' end %d, within clean %d", covered, next, clean)
		}
		if whole && (bytes.Count(data, []byte("\n")) != len(entries) || (len(data) > 0 && data[len(data)-1] != '\n')) {
			t.Fatalf("whole reported with %d entries for %d lines: %q", len(entries), bytes.Count(data, []byte("\n")), data)
		}
	})
}
