package store

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"energybench/internal/harness"
	"energybench/internal/par"
)

// parallelProcs is the GOMAXPROCS the windowed-codec tests run at, so the
// parallel path runs even where the machine has one CPU.
const parallelProcs = 4

func withProcs(t *testing.T, n int) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
}

// storedLine is one record line of a segment, as the serial reference
// decode sees it.
type storedLine struct {
	seg int
	off int64
	rec Record
}

// serialQuery is the reference the windowed Query must match: every
// segment's newline-terminated lines decoded one at a time, each into a
// fresh Record, deduped last-wins in first-appearance order, then
// filtered on the decoded result. It also returns each key's winning
// line, so a test can corrupt it.
func serialQuery(t *testing.T, st *Store, f Filter) ([]Record, map[string]storedLine) {
	t.Helper()
	var order []string
	winner := map[string]storedLine{}
	for i := range st.Segments() {
		data, err := os.ReadFile(st.segPath(i))
		if err != nil {
			t.Fatal(err)
		}
		data = data[:bytes.LastIndexByte(data, '\n')+1]
		for off := 0; off < len(data); {
			n := bytes.IndexByte(data[off:], '\n')
			if n > 0 {
				var rec Record
				if err := json.Unmarshal(data[off:off+n], &rec); err != nil {
					t.Fatalf("reference decode of %s at %d: %v", st.segPath(i), off, err)
				}
				if _, ok := winner[rec.Key]; !ok {
					order = append(order, rec.Key)
				}
				winner[rec.Key] = storedLine{seg: i, off: int64(off), rec: rec}
			}
			off += n + 1
		}
	}
	var out []Record
	for _, key := range order {
		if rec := winner[key].rec; f.Match(rec.Result) {
			out = append(out, rec)
		}
	}
	return out, winner
}

// multiWindowStore builds a sharded store over several segments holding
// more deduplicated records than several query windows, each key written
// up to three times with its sequence number in PowerW.Mean.
func multiWindowStore(t *testing.T) (*Store, string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "db-store")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	st.segTarget = 64 << 10
	unique := 4*par.Window() + 37
	var batch []harness.Result
	for i := range 2 * unique {
		r := scaleResult((i * 7) % unique)
		r.PowerW.Mean = float64(i)
		batch = append(batch, r)
		if len(batch) == 97 {
			if _, err := st.Append(batch); err != nil {
				t.Fatal(err)
			}
			batch = batch[:0]
		}
	}
	if _, err := st.Append(batch); err != nil {
		t.Fatal(err)
	}
	if st.Segments() < 3 {
		t.Fatalf("store has %d segments, want several", st.Segments())
	}
	return st, path
}

// TestQueryMatchesSerialDecode: the windowed Query yields exactly the
// records, in exactly the order, of a serial decode, across several
// windows, with and without a filter.
func TestQueryMatchesSerialDecode(t *testing.T) {
	withProcs(t, parallelProcs)
	st, _ := multiWindowStore(t)
	for _, f := range []Filter{{}, {Specs: []string{scaleSpec(1), scaleSpec(6)}, Threads: []int{1, 2, 5}}} {
		want, _ := serialQuery(t, st, f)
		got := collect(t, st, f)
		if f.IsZero() && len(got) < 3*par.Window() {
			t.Fatalf("query yielded %d records, want several windows' worth", len(got))
		}
		if len(got) == 0 || !reflect.DeepEqual(got, want) {
			t.Fatalf("filter %+v: windowed query yielded %d records, serial decode %d, or they differ", f, len(got), len(want))
		}
	}
}

// TestQueryStopsAtFirstBadRecord: records after a corrupt one are never
// yielded, even when they share its window and decode fine, and a second
// corrupt record later in the window does not displace the first. The
// iterator yields the prefix, then exactly one error naming the first.
func TestQueryStopsAtFirstBadRecord(t *testing.T) {
	withProcs(t, parallelProcs)
	for _, tc := range []struct {
		name    string
		corrupt func([]byte) // rewrites a record in place, keeping its length
		want    string
	}{
		{"syntax", func(b []byte) { b[0] = 'x' }, "invalid character 'x'"},
		{"schema", func(b []byte) { copy(b, fmt.Sprintf(`{"v":%d`, SchemaVersion+1)) }, "not supported"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			st, path := multiWindowStore(t)
			all, winner := serialQuery(t, st, Filter{})
			first := 2*par.Window() + 3
			for _, k := range []int{first, first + 5} {
				line := winner[all[k].Key]
				seg := st.segPath(line.seg)
				data, err := os.ReadFile(seg)
				if err != nil {
					t.Fatal(err)
				}
				tc.corrupt(data[line.off:])
				if err := os.WriteFile(seg, data, 0o644); err != nil {
					t.Fatal(err)
				}
			}

			var got []Record
			var errs []error
			for rec, err := range st.Query(Filter{}) {
				if err != nil {
					errs = append(errs, err)
					continue
				}
				if len(errs) > 0 {
					t.Fatal("a record came after the error")
				}
				got = append(got, rec)
			}
			if !reflect.DeepEqual(got, all[:first]) {
				t.Errorf("yielded %d records before the error, want the %d before the corrupt one", len(got), first)
			}
			prefix := fmt.Sprintf("store: %s: record %q: ", path, all[first].Key)
			if len(errs) != 1 || !strings.HasPrefix(errs[0].Error(), prefix) || !strings.Contains(errs[0].Error(), tc.want) {
				t.Errorf("errors = %v, want one starting %q and containing %q", errs, prefix, tc.want)
			}
		})
	}
}

// goroutinesAfter polls until the goroutine count falls to want or a second
// passes, and returns the last count: a goroutine that has signalled its
// WaitGroup may take a moment more to exit.
func goroutinesAfter(want int) int {
	deadline := time.Now().Add(time.Second)
	n := runtime.NumGoroutine()
	for n > want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// TestQueryBreakLeavesNoGoroutine: a consumer that stops mid-window
// leaves nothing running, because a window is fully decoded before any of
// its records is yielded.
func TestQueryBreakLeavesNoGoroutine(t *testing.T) {
	withProcs(t, parallelProcs)
	st, _ := multiWindowStore(t)
	before := runtime.NumGoroutine()
	n := 0
	for _, err := range st.Query(Filter{}) {
		if err != nil {
			t.Fatal(err)
		}
		if n++; n == par.Window()+10 {
			break
		}
	}
	if after := goroutinesAfter(before); after > before {
		t.Errorf("goroutines after breaking out of a query = %d, want at most the %d before it", after, before)
	}
}

// TestBatchAppendSpanningWindows: one Append of several windows of
// results writes them in order, each line the bytes a serial encode gives,
// and they read back equal to the input, in both layouts.
func TestBatchAppendSpanningWindows(t *testing.T) {
	withProcs(t, parallelProcs)
	in := make([]harness.Result, 3*par.Window()+5)
	for i := range in {
		in[i] = scaleResult(i)
		in[i].PowerW.Mean = float64(i) / 3
	}
	for _, name := range []string{"db.jsonl", "db-store"} {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), name)
			appendTo(t, path, in...)
			st, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			stored, _ := serialQuery(t, st, Filter{})
			if len(stored) != len(in) {
				t.Fatalf("stored %d records, want %d", len(stored), len(in))
			}
			var want bytes.Buffer
			for i, rec := range stored {
				if rec.Key != harness.ResultKey(in[i]) || !reflect.DeepEqual(rec.Result, in[i]) {
					t.Fatalf("record %d = %s, want %s", i, rec.Key, harness.ResultKey(in[i]))
				}
				line, err := encodeRecord(rec)
				if err != nil {
					t.Fatal(err)
				}
				want.Write(append(line, '\n'))
			}
			data, err := os.ReadFile(st.segPath(0))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(data, want.Bytes()) {
				t.Error("segment bytes differ from a serial encode of the same records")
			}
			if got := collect(t, st, Filter{}); !reflect.DeepEqual(got, stored) {
				t.Error("windowed query differs from the serial decode")
			}
		})
	}
}

// TestSingleAppendStartsNoGoroutine: a one-record Append (the sweep's
// store sink, the coordinator's ingest) encodes on the caller, so nothing
// runs beside a measured region. A watcher samples the goroutine count
// while the appends run; par's own tests pin the inline path exactly.
func TestSingleAppendStartsNoGoroutine(t *testing.T) {
	withProcs(t, parallelProcs)
	st, err := Create(filepath.Join(t.TempDir(), "db-store"))
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Append([]harness.Result{scaleResult(0)}); err != nil {
		t.Fatal(err)
	}

	before := runtime.NumGoroutine() + 1 // the watcher
	var stop atomic.Bool
	var peak atomic.Int64
	done := make(chan struct{})
	go func() {
		defer close(done)
		for !stop.Load() {
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			runtime.Gosched()
		}
	}()
	for i := range 300 {
		r := scaleResult(i)
		r.Samples = make([]harness.Sample, 64) // make each encode take a while
		if _, err := st.Append([]harness.Result{r}); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	<-done
	if p := peak.Load(); p > int64(before) {
		t.Errorf("goroutines peaked at %d during one-record appends, want at most %d", p, before)
	}
}
