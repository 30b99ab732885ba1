package store

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"energybench/internal/harness"
	"energybench/internal/stats"
)

// scaleSpec names one of the synthetic corpus's 16 specs, so a spec filter
// selects a strict subset of it.
func scaleSpec(slot int) string { return fmt.Sprintf("synth%02d", slot%16) }

// scaleResult maps a grid slot to a distinct configuration: 16 specs × 8
// thread counts × 2 placements, then growing iteration counts.
func scaleResult(slot int) harness.Result {
	placements := []harness.Placement{harness.PlaceCompact, harness.PlaceScatter}
	return harness.Result{
		Spec:      scaleSpec(slot),
		Threads:   1 + (slot/16)%8,
		Iters:     1000 + 128*(slot/(16*8*len(placements))),
		Placement: placements[(slot/(16*8))%len(placements)],
		Meter:     "synthetic",
		EnergyJ:   stats.Summary{N: 1, Mean: 1},
		TimeS:     stats.Summary{N: 1, Mean: 1},
		PowerW:    stats.Summary{N: 1, Mean: 1},
	}
}

// checkLastWins requires the store's key set to be exactly want's keys, and
// a full query to yield each of them once, carrying its last-written value.
func checkLastWins(t *testing.T, st *Store, want map[string]float64) {
	t.Helper()
	keys, err := st.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != len(want) {
		t.Fatalf("Keys() = %d keys, want %d", len(keys), len(want))
	}
	for k := range want {
		if !keys[k] {
			t.Fatalf("Keys() lost %s", k)
		}
	}
	seen := make(map[string]bool, len(want))
	for _, rec := range collect(t, st, Filter{}) {
		if seen[rec.Key] {
			t.Fatalf("query yielded %s twice", rec.Key)
		}
		seen[rec.Key] = true
		if w, ok := want[rec.Key]; !ok || rec.Result.PowerW.Mean != w {
			t.Fatalf("query yielded %s with sequence %v, want %v (known=%v; last write must win)",
				rec.Key, rec.Result.PowerW.Mean, w, ok)
		}
	}
	if len(seen) != len(want) {
		t.Fatalf("query yielded %d records, want %d", len(seen), len(want))
	}
}

// TestStoreAtScale drives a deduplicating corpus through append, keys,
// filtered queries, a point lookup and compaction. Every key is written
// four times, in batches of 512, and each write carries its sequence number
// in PowerW.Mean, so last-wins is checkable. The sharded case runs 50,000
// appends over 12,500 keys across many segments; the single-file case is
// smaller, because each of its reads rescans the whole file.
func TestStoreAtScale(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name, path string
		records    int
	}{
		{"sharded", "db-store", 50000},
		{"file", "db.jsonl", 2000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), tc.path)
			st, err := Create(path)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			st.segTarget = 1 << 20 // about seven segments for the sharded corpus

			unique := tc.records / 4
			want := make(map[string]float64, unique)
			batch := make([]harness.Result, 0, 512)
			for i := range tc.records {
				r := scaleResult(i % unique)
				r.PowerW.Mean = float64(i)
				want[harness.ResultKey(r)] = float64(i)
				batch = append(batch, r)
				if len(batch) == cap(batch) || i == tc.records-1 {
					if _, err := st.Append(batch); err != nil {
						t.Fatal(err)
					}
					batch = batch[:0]
				}
			}
			if len(want) != unique {
				t.Fatalf("corpus has %d distinct keys, want %d", len(want), unique)
			}
			if st.sharded && st.Segments() < 2 {
				t.Fatalf("corpus fits %d segment, want several", st.Segments())
			}
			checkLastWins(t, st, want)

			if n := len(collect(t, st, Filter{Specs: []string{scaleSpec(0)}})); n == 0 || n >= unique {
				t.Errorf("spec filter matched %d of %d keys, want a strict non-empty subset", n, unique)
			}
			subset := collect(t, st, Filter{Specs: []string{scaleSpec(0)}, Threads: []int{2}})
			if len(subset) == 0 {
				t.Error("spec+threads filter matched nothing")
			}
			for _, rec := range subset {
				if rec.Result.Spec != scaleSpec(0) || rec.Result.Threads != 2 {
					t.Fatalf("spec+threads filter yielded %s", rec.Key)
				}
			}
			probe := harness.ResultKey(scaleResult(0))
			if got := collect(t, st, Filter{Keys: []string{probe}}); len(got) != 1 || got[0].Key != probe || got[0].Result.PowerW.Mean != want[probe] {
				t.Errorf("key lookup of %s = %d records, want exactly its last write", probe, len(got))
			}

			kept, err := st.Compact()
			if err != nil {
				t.Fatal(err)
			}
			if kept != unique {
				t.Errorf("compact kept %d records, want %d", kept, unique)
			}
			compacted, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer compacted.Close()
			checkLastWins(t, compacted, want)
			if st.sharded {
				if _, err := os.Stat(filepath.Join(path, manifestName)); err != nil {
					t.Errorf("compacted store has no manifest: %v", err)
				}
			}
		})
	}
}
