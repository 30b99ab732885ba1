package store

import (
	"os"
	"path/filepath"
	"testing"

	"energybench/internal/harness"
)

// fixtureV1toV4 is one record per prior schema version, exactly as those
// builds wrote them: v1 (bare), v2 (counters), v3 (sampling series), v4
// (fleet host/microarch stamp). The v5 reader must load all of them
// unchanged — an accumulated dataset survives every schema bump.
const fixtureV1toV4 = `{"v":1,"key":"int-alu||t1+0|none|mock|i1000+0","saved_at":"2026-05-01T00:00:00Z","result":{"spec":"int-alu","component":"int-alu","threads":1,"iters":1000,"placement":"none","meter":"mock","power_w_summary":{"mean":12}}}
{"v":2,"key":"chase-l1||t1+0|none|mock|i1000+0","saved_at":"2026-06-01T00:00:00Z","result":{"spec":"chase-l1","component":"l1","threads":1,"iters":1000,"placement":"none","meter":"mock","power_w_summary":{"mean":20},"counters":{"backend":"mock","reps":2,"events":[{"event":"cycles","total_mean":1e9,"rate_hz_mean":3e9}]}}}
{"v":3,"key":"int-alu||t2+0|compact|mock|i1000+0","saved_at":"2026-07-01T00:00:00Z","result":{"spec":"int-alu","component":"int-alu","threads":2,"iters":1000,"placement":"compact","meter":"mock","power_w_summary":{"mean":48},"sample_interval_ns":10000000}}
{"v":4,"key":"int-alu||t1+0|none|mock|i1000+0|h:h1|u:TestCPU v1","saved_at":"2026-07-20T00:00:00Z","result":{"spec":"int-alu","component":"int-alu","threads":1,"iters":1000,"placement":"none","meter":"mock","host":"h1","microarch":"TestCPU v1","power_w_summary":{"mean":13}}}
`

// mkWorkloadResult synthesizes the result an extern trial stores.
func mkWorkloadResult(workload string, threads int) harness.Result {
	r := mkResult(workload, threads, "none")
	r.Iters = 1
	r.Workload = workload
	return r
}

// TestLoadV1toV4RecordsUnderV5 extends the compat chain to the workload
// schema: every prior version's records load under the v5 reader exactly as
// written, a freshly appended workload record carries the new "|w:" key
// dimension, and the old records' keys stay byte-identical.
func TestLoadV1toV4RecordsUnderV5(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.jsonl")
	if err := os.WriteFile(path, []byte(fixtureV1toV4), 0o644); err != nil {
		t.Fatal(err)
	}

	appendTo(t, path, mkWorkloadResult("stress", 2))

	recs, err := load(path)
	if err != nil {
		t.Fatalf("mixed v1..v5 store failed to load: %v", err)
	}
	if len(recs) != 5 {
		t.Fatalf("loaded %d records, want 5", len(recs))
	}
	for i, wantV := range []int{1, 2, 3, 4} {
		if recs[i].V != wantV {
			t.Errorf("record %d schema = %d, want %d (old records must load as written)", i, recs[i].V, wantV)
		}
		if recs[i].Result.Workload != "" {
			t.Errorf("v%d record grew a workload %q", wantV, recs[i].Result.Workload)
		}
	}
	// The old keys survive byte-identically, including the v4 host form.
	if got, want := recs[3].Key, "int-alu||t1+0|none|mock|i1000+0|h:h1|u:TestCPU v1"; got != want {
		t.Errorf("v4 key = %q, want %q", got, want)
	}
	neu := recs[4]
	if neu.V != SchemaVersion {
		t.Errorf("appended record schema = %d, want %d", neu.V, SchemaVersion)
	}
	if got, want := neu.Key, "stress||t2+0|none|mock|i1+0|w:stress"; got != want {
		t.Errorf("workload key = %q, want %q", got, want)
	}
	if neu.Result.Workload != "stress" {
		t.Errorf("workload field lost: %+v", neu.Result)
	}
}

// TestWorkloadFilterPushdownBothLayouts verifies --where workload= semantics
// on the single-file and sharded layouts through the unified Store API: the
// filter prunes from the key index alone, kernel results (no workload) match
// only an empty Workloads filter, and mixed old-schema records are untouched
// by a workload query.
func TestWorkloadFilterPushdownBothLayouts(t *testing.T) {
	results := []harness.Result{
		mkResult("int-alu", 1, "none"),
		mkResult("chase-dram", 2, "none"),
		mkWorkloadResult("stress", 1),
		mkWorkloadResult("stress", 2),
		mkWorkloadResult("other", 1),
	}
	layouts := map[string]string{
		"single-file": filepath.Join(t.TempDir(), "db.jsonl"),
		"sharded":     filepath.Join(t.TempDir(), "db-dir"),
	}
	for name, path := range layouts {
		t.Run(name, func(t *testing.T) {
			s, err := Create(path)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Append(results); err != nil {
				t.Fatal(err)
			}

			query := func(f Filter) []harness.Result {
				t.Helper()
				var out []harness.Result
				for rec, err := range s.Query(f) {
					if err != nil {
						t.Fatal(err)
					}
					out = append(out, rec.Result)
				}
				return out
			}

			stress := query(Filter{Workloads: []string{"stress"}})
			if len(stress) != 2 {
				t.Fatalf("workload=stress matched %d results, want 2", len(stress))
			}
			for _, r := range stress {
				if r.Workload != "stress" {
					t.Errorf("filter leaked %q/%q", r.Spec, r.Workload)
				}
			}
			// Kernel results carry no workload: a named workload filter
			// never sees them, while the explicit empty value selects
			// exactly them (the same convention Hosts uses).
			if got := query(Filter{Workloads: []string{"stress", "other"}}); len(got) != 3 {
				t.Errorf("workload in (stress, other) matched %d results, want 3", len(got))
			}
			kernels := query(Filter{Workloads: []string{""}})
			if len(kernels) != 2 {
				t.Fatalf("empty workload value matched %d results, want the 2 kernel rows", len(kernels))
			}
			for _, r := range kernels {
				if r.Workload != "" {
					t.Errorf("empty-value filter leaked workload %q", r.Workload)
				}
			}
			if got := query(Filter{}); len(got) != len(results) {
				t.Errorf("unfiltered query = %d results, want %d", len(got), len(results))
			}
			// Pushdown composes with the other key dimensions.
			if got := query(Filter{Workloads: []string{"stress"}, Threads: []int{2}}); len(got) != 1 {
				t.Errorf("workload=stress threads=2 matched %d, want 1", len(got))
			}
		})
	}
}

// TestMatchKeyWorkloadDimension pins the index-level pre-filter: a workload
// filter must prove mismatches from the key alone (no record read) on both
// workload-bearing and kernel keys, and stay conservative on foreign keys.
func TestMatchKeyWorkloadDimension(t *testing.T) {
	f := Filter{Workloads: []string{"stress"}}
	cases := []struct {
		key  string
		want bool
	}{
		{"stress||t1+0|none|mock|i1+0|w:stress", true},
		{"other||t1+0|none|mock|i1+0|w:other", false},
		{"int-alu||t1+0|none|mock|i1000+0", false},
		{"stress||t1+0|none|mock|i1+0|w:stress|h:h1", true},
		// Unparseable foreign keys cannot be excluded at the index level.
		{"not a key", true},
	}
	for _, tc := range cases {
		if got := f.MatchKey(tc.key); got != tc.want {
			t.Errorf("MatchKey(%q) = %v, want %v", tc.key, got, tc.want)
		}
	}
}
