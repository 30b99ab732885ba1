package store

import (
	"path/filepath"
	"testing"

	"energybench/internal/harness"
)

func TestKeysExportsStoredConfigurations(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.jsonl")

	// A single-file store is created lazily: before its first append it
	// holds no keys, and listing them must not fail.
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	keys, err := st.Keys()
	if err != nil {
		t.Fatalf("Keys on a not-yet-written store: %v", err)
	}
	if len(keys) != 0 {
		t.Fatalf("not-yet-written store yielded %d keys", len(keys))
	}
	st.Close()

	a, b := mkResult("int-alu", 1, "none"), mkResult("int-alu", 2, "none")
	appendTo(t, path, a, b, a)
	keys, err = keysOf(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 2 {
		t.Fatalf("got %d keys, want 2 after dedup: %v", len(keys), keys)
	}
	if !keys[harness.ResultKey(a)] || !keys[harness.ResultKey(b)] {
		t.Errorf("key set %v missing %q or %q", keys, harness.ResultKey(a), harness.ResultKey(b))
	}
}

// TestSinkFlushesPerResult is the mid-sweep durability regression test: each
// Consume must leave the record fully readable on disk immediately — before
// any later trial runs and before Close — so a SIGINT mid-sweep never loses
// a completed configuration.
func TestSinkFlushesPerResult(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.jsonl")
	s := NewSink(path)

	results := []harness.Result{
		mkResult("int-alu", 1, "none"),
		mkResult("int-alu", 2, "none"),
		mkResult("chase-l1", 1, "none"),
	}
	for i, r := range results {
		if err := s.Consume(r); err != nil {
			t.Fatal(err)
		}
		// Load through a fresh reader after every single Consume: the data
		// must already be durable without Close.
		recs, err := load(path)
		if err != nil {
			t.Fatalf("after %d consumes: %v", i+1, err)
		}
		if len(recs) != i+1 {
			t.Fatalf("after %d consumes the store holds %d records", i+1, len(recs))
		}
	}
	if s.Count() != 3 {
		t.Errorf("Count = %d, want 3", s.Count())
	}
	if err := s.Close(); err != nil {
		t.Errorf("Close = %v", err)
	}
}

// TestSinkShardedDurability: the same per-Consume durability over a sharded
// store directory, plus the Close contract — Close must seal the active
// segment and record its count in the manifest (the historical no-op Close
// left the manifest stale).
func TestSinkShardedDurability(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db-store")
	s := NewSink(path)
	for i, r := range []harness.Result{
		mkResult("int-alu", 1, "none"),
		mkResult("int-alu", 2, "none"),
	} {
		if err := s.Consume(r); err != nil {
			t.Fatal(err)
		}
		st, err := Open(path)
		if err != nil {
			t.Fatalf("after %d consumes: %v", i+1, err)
		}
		keys, err := st.Keys()
		st.Close()
		if err != nil {
			t.Fatalf("after %d consumes: %v", i+1, err)
		}
		if len(keys) != i+1 {
			t.Fatalf("after %d consumes the store holds %d keys", i+1, len(keys))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	total := 0
	for _, seg := range st.man.Segments {
		total += seg.Records
	}
	if total != 2 {
		t.Errorf("manifest record counts sum to %d after Close, want 2", total)
	}
}

// TestSinkSurfacesWriteErrors: an unwritable store path must fail Consume,
// aborting the sweep rather than silently dropping results.
func TestSinkSurfacesWriteErrors(t *testing.T) {
	s := NewSink(filepath.Join(t.TempDir(), "no-such-dir", "db.jsonl"))
	if err := s.Consume(mkResult("int-alu", 1, "none")); err == nil {
		t.Error("Consume into an unwritable path returned nil")
	}
	if s.Count() != 0 {
		t.Errorf("failed Consume still counted: %d", s.Count())
	}
}
