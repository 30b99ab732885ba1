package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"energybench/internal/harness"
	"energybench/internal/stats"
	"energybench/internal/store"
)

// storeBenchDoc is the metrics document `store bench` emits — the
// BENCH_store.json artifact CI publishes from the scale smoke job.
type storeBenchDoc struct {
	SchemaVersion int    `json:"schema_version"`
	DB            string `json:"db"`
	Sharded       bool   `json:"sharded"`
	Records       int    `json:"records"`
	UniqueKeys    int    `json:"unique_keys"`
	Segments      int    `json:"segments"`

	AppendSeconds    float64 `json:"append_seconds"`
	AppendPerSecond  float64 `json:"append_records_per_second"`
	KeysSeconds      float64 `json:"keys_seconds"`
	QueryAllSeconds  float64 `json:"query_all_seconds"`
	QueryWhereMillis float64 `json:"query_where_millis"`
	QueryWhereHits   int     `json:"query_where_hits"`
	PointGetMillis   float64 `json:"point_get_millis"`
	CompactSeconds   float64 `json:"compact_seconds"`
	CompactPerSecond float64 `json:"compact_records_per_second"`
	CompactKept      int     `json:"compact_kept"`
}

// cmdStoreBench synthesizes a deterministic result corpus, drives it through
// the store's append → keys → query → compact lifecycle, asserts correctness
// at each step (dedup cardinality, last-wins values, key-set stability across
// compaction), and prints a JSON metrics document. It is both the scale smoke
// test and the source of the BENCH_store.json artifact.
func cmdStoreBench(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("store bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	db := fs.String("db", "", "store path to create (must not already exist)")
	records := fs.Int("records", 50000, "number of records to append (duplicates included)")
	batch := fs.Int("batch", 512, "append batch size")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *db == "" {
		return fmt.Errorf("--db is required")
	}
	if *records <= 0 || *batch <= 0 {
		return fmt.Errorf("--records and --batch must be positive")
	}
	if _, err := os.Stat(*db); err == nil {
		return fmt.Errorf("%s already exists; store bench needs a fresh path", *db)
	}

	doc := storeBenchDoc{SchemaVersion: store.SchemaVersion, DB: *db, Records: *records}

	st, err := store.Create(*db)
	if err != nil {
		return err
	}
	defer st.Close()
	doc.Sharded = st.Sharded()

	// Deterministic synthesis: cycle a configuration grid smaller than the
	// record count so later records overwrite earlier ones and dedup does
	// real work. PowerW.Mean carries the record's sequence number, which
	// makes last-wins verifiable: the surviving value for a key must be the
	// highest sequence number that mapped to it.
	unique := uniqueGridSize(*records)
	want := make(map[string]float64, unique)
	start := time.Now()
	buf := make([]harness.Result, 0, *batch)
	for i := 0; i < *records; i++ {
		r := synthResult(i % unique)
		r.PowerW.Mean = float64(i)
		want[harness.ResultKey(r)] = float64(i)
		buf = append(buf, r)
		if len(buf) == *batch {
			if _, err := st.Append(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
	}
	if len(buf) > 0 {
		if _, err := st.Append(buf); err != nil {
			return err
		}
	}
	doc.AppendSeconds = time.Since(start).Seconds()
	doc.AppendPerSecond = float64(*records) / doc.AppendSeconds
	doc.UniqueKeys = len(want)
	doc.Segments = st.Segments()

	// Keys: the resume view must see exactly the unique configurations.
	start = time.Now()
	keys, err := st.Keys()
	if err != nil {
		return err
	}
	doc.KeysSeconds = time.Since(start).Seconds()
	if len(keys) != len(want) {
		return fmt.Errorf("store bench: Keys() saw %d configurations, want %d", len(keys), len(want))
	}

	// Full query: every unique key once, carrying its last-written value.
	start = time.Now()
	n := 0
	for rec, err := range st.Query(store.Filter{}) {
		if err != nil {
			return err
		}
		key := harness.ResultKey(rec.Result)
		wantMean, ok := want[key]
		if !ok {
			return fmt.Errorf("store bench: query returned unknown key %s", key)
		}
		if rec.Result.PowerW.Mean != wantMean {
			return fmt.Errorf("store bench: key %s resolved to sequence %.0f, want %.0f (last write must win)",
				key, rec.Result.PowerW.Mean, wantMean)
		}
		n++
	}
	doc.QueryAllSeconds = time.Since(start).Seconds()
	if n != len(want) {
		return fmt.Errorf("store bench: full query yielded %d records, want %d", n, len(want))
	}

	// Filtered query: the index should narrow a --where style filter to one
	// spec without touching the rest of the corpus.
	start = time.Now()
	hits := 0
	for _, err := range st.Query(store.Filter{Specs: []string{benchSpecName(0)}}) {
		if err != nil {
			return err
		}
		hits++
	}
	doc.QueryWhereMillis = float64(time.Since(start).Microseconds()) / 1e3
	doc.QueryWhereHits = hits
	if hits == 0 || hits >= len(want) {
		return fmt.Errorf("store bench: spec filter matched %d of %d keys; expected a strict subset", hits, len(want))
	}

	// Point lookup by exact key — the path `run --resume` key checks take.
	probe := harness.ResultKey(synthResult(0))
	start = time.Now()
	rec, ok, err := st.Get(probe)
	doc.PointGetMillis = float64(time.Since(start).Microseconds()) / 1e3
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("store bench: Get(%s) found nothing", probe)
	}
	if got := harness.ResultKey(rec.Result); got != probe {
		return fmt.Errorf("store bench: Get(%s) returned key %s", probe, got)
	}

	// Compaction drops every superseded duplicate and must preserve the key
	// set and surviving values exactly.
	start = time.Now()
	kept, err := st.Compact()
	if err != nil {
		return err
	}
	doc.CompactSeconds = time.Since(start).Seconds()
	doc.CompactPerSecond = float64(*records) / doc.CompactSeconds
	doc.CompactKept = kept
	if kept != len(want) {
		return fmt.Errorf("store bench: compact kept %d records, want %d", kept, len(want))
	}
	after, err := st.Keys()
	if err != nil {
		return err
	}
	if len(after) != len(keys) {
		return fmt.Errorf("store bench: compact changed the key count from %d to %d", len(keys), len(after))
	}
	for k := range keys {
		if !after[k] {
			return fmt.Errorf("store bench: compact lost key %s", k)
		}
	}
	for rec, err := range st.Query(store.Filter{}) {
		if err != nil {
			return err
		}
		if rec.Result.PowerW.Mean != want[harness.ResultKey(rec.Result)] {
			return fmt.Errorf("store bench: compact corrupted key %s", harness.ResultKey(rec.Result))
		}
	}
	doc.Segments = st.Segments()

	return writeJSON(stdout, doc)
}

// uniqueGridSize picks the synthetic configuration-grid cardinality: about a
// quarter of the record count (so each key is written ~4 times), capped to
// keep index memory proportional to unique keys, floored at one.
func uniqueGridSize(records int) int {
	u := records / 4
	if u > 16384 {
		u = 16384
	}
	if u < 1 {
		u = 1
	}
	return u
}

func benchSpecName(i int) string { return fmt.Sprintf("synth%02d", i%16) }

// synthResult deterministically maps a grid slot to a distinct configuration:
// 16 specs × 8 thread counts × 2 placements × varying iteration counts.
func synthResult(slot int) harness.Result {
	placements := []harness.Placement{harness.PlaceCompact, harness.PlaceScatter}
	return harness.Result{
		Spec:      benchSpecName(slot),
		Threads:   1 + (slot/16)%8,
		Iters:     1000 + 128*(slot/(16*8*len(placements))),
		Placement: placements[(slot/(16*8))%len(placements)],
		Meter:     "synthetic",
		EnergyJ:   stats.Summary{N: 1, Mean: 1.0},
		TimeS:     stats.Summary{N: 1, Mean: 1.0},
		PowerW:    stats.Summary{N: 1, Mean: 1.0},
	}
}
