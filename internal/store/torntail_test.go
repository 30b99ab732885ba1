package store

import (
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"testing"
	"time"

	"energybench/internal/harness"
)

var layouts = []string{"file", "sharded"}

// rawStore lays data down as a store in the given layout: the whole file of
// a single-file store, or the only segment of a sharded store that has no
// sidecar, so every read goes through the envelope scan.
func rawStore(t *testing.T, layout string, data []byte) string {
	t.Helper()
	dir := t.TempDir()
	if layout == "file" {
		path := filepath.Join(dir, "db.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	path := filepath.Join(dir, "db-store")
	seg := "seg-00000001.jsonl"
	man, err := json.Marshal(manifest{Format: manifestFormat, Schema: SchemaVersion, Segments: []segmentInfo{{Name: seg}}})
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, manifestName), man, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(path, seg), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// recordLine encodes r as the store writes it, without the newline.
func recordLine(r harness.Result) string {
	line, err := encodeRecord(Record{V: SchemaVersion, Key: harness.ResultKey(r), SavedAt: time.Unix(0, 0).UTC(), Result: r})
	if err != nil {
		panic(err)
	}
	return string(line)
}

// TestUnterminatedRecordIsTornTail: a store ending in a complete record
// without its newline (a crash after the record's bytes but before the
// newline's) must not list that record, because the next append truncates
// it. Listing it would let --resume skip a trial whose result is then
// deleted.
func TestUnterminatedRecordIsTornTail(t *testing.T) {
	kept, torn := mkResult("int-alu", 1, "none"), mkResult("int-alu", 2, "none")
	data := []byte(recordLine(kept) + "\n" + recordLine(torn))
	for _, layout := range layouts {
		t.Run(layout, func(t *testing.T) {
			path := rawStore(t, layout, data)
			want := map[string]bool{harness.ResultKey(kept): true}
			if keys, err := keysOf(path); err != nil || !maps.Equal(keys, want) {
				t.Fatalf("keys = %v, %v; want only the terminated record's %v", keys, err, want)
			}
			if recs, err := load(path); err != nil || len(recs) != 1 || recs[0].Key != harness.ResultKey(kept) {
				t.Fatalf("query = %d records, %v; want only the terminated record", len(recs), err)
			}

			added := mkResult("fp-mac", 1, "none")
			appendTo(t, path, added)
			want[harness.ResultKey(added)] = true
			if keys, err := keysOf(path); err != nil || !maps.Equal(keys, want) {
				t.Errorf("keys after append = %v, %v; want %v", keys, err, want)
			}
		})
	}
}

// TestTerminatedMalformedLineIsError: a malformed line that has its
// newline lies inside the store's newline-terminated prefix, so it is
// corruption, not a torn append. Reads must fail up front instead of
// tolerating it until the next append buries it mid-store.
func TestTerminatedMalformedLineIsError(t *testing.T) {
	data := []byte(recordLine(mkResult("int-alu", 1, "none")) + "\n" + `{"v":5,"key":"torn","resu` + "\n")
	for _, layout := range layouts {
		t.Run(layout, func(t *testing.T) {
			path := rawStore(t, layout, data)
			if keys, err := keysOf(path); err == nil {
				t.Errorf("keys = %v, want a read error for the malformed terminated line", keys)
			}
			if recs, err := load(path); err == nil {
				t.Errorf("query = %d records, want a read error for the malformed terminated line", len(recs))
			}
		})
	}
}

// TestAppendRejectsNewlineKey: a key is one sidecar line, so a result
// whose key would contain a newline (a spec name from `store add` input,
// say) is refused in both layouts instead of corrupting the index.
func TestAppendRejectsNewlineKey(t *testing.T) {
	for _, path := range []string{"db.jsonl", "db-store"} {
		st, err := Create(filepath.Join(t.TempDir(), path))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := st.Append([]harness.Result{mkResult("a\nb", 1, "none")}); err == nil {
			t.Errorf("%s: append of a key with a newline succeeded, want an error", path)
		}
		st.Close()
	}
}

// TestFailedAppendWritesNothing: every key is checked before the first
// write, so a batch whose last result has a bad key leaves no record of
// the batch behind, even after Close flushes the appender.
func TestFailedAppendWritesNothing(t *testing.T) {
	for _, name := range []string{"db.jsonl", "db-store"} {
		path := filepath.Join(t.TempDir(), name)
		appendTo(t, path, mkResult("fp-mac", 1, "none"))
		st, err := Create(path)
		if err != nil {
			t.Fatal(err)
		}
		batch := []harness.Result{mkResult("int-alu", 1, "none"), mkResult("int-alu", 2, "none"), mkResult("a\nb", 1, "none")}
		if n, err := st.Append(batch); err == nil || n != 0 {
			t.Errorf("%s: append = %d, %v; want 0 and the newline key refused", name, n, err)
		}
		if err := st.Close(); err != nil {
			t.Fatal(err)
		}
		want := map[string]bool{harness.ResultKey(mkResult("fp-mac", 1, "none")): true}
		if keys, err := keysOf(path); err != nil || !maps.Equal(keys, want) {
			t.Errorf("%s: keys after the failed append = %v, %v; want only the earlier record's", name, keys, err)
		}
	}
}

// FuzzReadersAgreeWithWriter feeds arbitrary bytes to both layouts and
// checks that reads never panic and that readers agree with the writer
// about the torn tail: whenever Keys succeeds, one Append adds exactly its
// record's key and loses none of the listed ones.
func FuzzReadersAgreeWithWriter(f *testing.F) {
	good := recordLine(mkResult("int-alu", 1, "none"))
	f.Add([]byte(good + "\n" + recordLine(mkResult("int-alu", 2, "none"))))
	f.Add([]byte(good + "\n" + `{"v":5,"key":"torn","resu` + "\n"))
	f.Add([]byte(good + "\n\n" + `{"v":1,"key":"k"}` + "\n{partial"))
	// A sidecar holds one key per line, so a key with a newline must be
	// refused, not split.
	f.Add([]byte(`{"v":1,"key":"a\nb"}` + "\n"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, layout := range layouts {
			path := rawStore(t, layout, data)
			st, err := Open(path)
			if err != nil {
				t.Fatalf("%s: open: %v", layout, err)
			}
			for _, err := range st.Query(Filter{}) {
				if err != nil {
					break
				}
			}
			before, err := st.Keys()
			st.Close()
			if err != nil {
				continue
			}
			added := mkResult("fp-mac", 3, "scatter")
			appendTo(t, path, added)
			want := maps.Clone(before)
			want[harness.ResultKey(added)] = true
			if after, err := keysOf(path); err != nil || !maps.Equal(after, want) {
				t.Fatalf("%s: keys after one append = %v, %v; want %v", layout, after, err, want)
			}
		}
	})
}
