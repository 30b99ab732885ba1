package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"energybench/internal/par"
	"energybench/internal/store"
)

func TestDecodeAddInputShapes(t *testing.T) {
	resultJSON := `{"spec":"int-alu","component":"alu","threads":2,"placement":"none","meter":"mock","iters":1000}`
	recordJSON := fmt.Sprintf(`{"v":%d,"key":"int-alu||t2+0|none|mock|i1000+0","saved_at":"2026-08-08T00:00:00Z","result":%s}`,
		store.SchemaVersion, resultJSON)

	cases := []struct {
		name, in string
		want     int
	}{
		{"run result array", "[" + resultJSON + "]", 1},
		{"store query record array", "  [" + recordJSON + "," + recordJSON + "]", 2},
		{"fleet NDJSON record stream", recordJSON + "\n" + recordJSON + "\n\n" + recordJSON + "\n", 3},
		{"empty array", "[]", 0},
		// A fleet job whose trials all failed streams no records.
		{"empty stream", "", 0},
		{"whitespace-only stream", " \n\t\r\n", 0},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			results, err := decodeAddInput(strings.NewReader(tc.in), "test")
			if err != nil {
				t.Fatal(err)
			}
			if len(results) != tc.want {
				t.Fatalf("decoded %d results, want %d", len(results), tc.want)
			}
			for _, r := range results {
				if r.Spec != "int-alu" || r.Threads != 2 {
					t.Fatalf("decoded result %+v", r)
				}
			}
		})
	}
}

func TestDecodeAddInputRejects(t *testing.T) {
	newer := fmt.Sprintf(`{"v":%d,"key":"k","result":{"spec":"int-alu"}}`, store.SchemaVersion+1)
	if _, err := decodeAddInput(strings.NewReader(newer+"\n"), "test"); err == nil || !strings.Contains(err.Error(), "schema") {
		t.Fatalf("newer-schema record: err = %v", err)
	}
	if _, err := decodeAddInput(strings.NewReader(`{"neither":true}`+"\n"), "test"); err == nil {
		t.Fatal("shapeless document accepted")
	}
	if _, err := decodeAddInput(strings.NewReader("not json\n"), "test"); err == nil {
		t.Fatal("malformed line accepted")
	}
}

// TestDecodeAddInputWindows: input longer than one decode window keeps its
// order, and an error names the first bad document even when a later one
// in the same window, or a read error further on, also fails.
func TestDecodeAddInputWindows(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	n := 3*par.Window() + 5
	var ndjson, array strings.Builder
	array.WriteString("[")
	for i := range n {
		doc := fmt.Sprintf(`{"spec":"int-alu","threads":2,"placement":"none","meter":"mock","iters":%d}`, i+1)
		ndjson.WriteString(doc + "\n")
		if i > 0 {
			array.WriteString(",")
		}
		array.WriteString(doc)
	}
	array.WriteString("]")
	for name, in := range map[string]string{"ndjson": ndjson.String(), "array": array.String()} {
		results, err := decodeAddInput(strings.NewReader(in), "test")
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(results) != n {
			t.Fatalf("%s: decoded %d results, want %d", name, len(results), n)
		}
		for i, r := range results {
			if r.Iters != i+1 {
				t.Fatalf("%s: result %d has iters %d, want %d", name, i, r.Iters, i+1)
			}
		}
	}

	lines := strings.Split(ndjson.String(), "\n")
	lines[par.Window()+3] = "not json"
	lines[par.Window()+7] = `{"neither":true}`
	bad := strings.Join(lines, "\n")
	want := fmt.Sprintf("record %d from test:", par.Window()+4)
	if _, err := decodeAddInput(strings.NewReader(bad), "test"); err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("two bad lines in one window: err = %v, want the first (%q)", err, want)
	}
	// A read failing after the bad line, inside the same window, does not
	// take precedence over it.
	cut := io.MultiReader(strings.NewReader(strings.Join(lines[:par.Window()+5], "\n")+"\n"), failingReader{})
	if _, err := decodeAddInput(cut, "test"); err == nil || !strings.HasPrefix(err.Error(), want) {
		t.Errorf("bad line before a read error: err = %v, want the bad line's (%q)", err, want)
	}
	if _, err := decodeAddInput(io.MultiReader(strings.NewReader(ndjson.String()), failingReader{}), "test"); !errors.Is(err, errReadFailed) {
		t.Errorf("read error after good lines: err = %v, want %v", err, errReadFailed)
	}
}

var errReadFailed = errors.New("read failed")

// failingReader fails every read, like a pipe whose writer died.
type failingReader struct{}

func (failingReader) Read([]byte) (int, error) { return 0, errReadFailed }

// TestFailedStoreAddWritesNothing: `store add` of a batch with one result
// the store refuses (a spec whose key would hold a newline) fails and
// leaves the store without any record of the batch, in both layouts.
func TestFailedStoreAddWritesNothing(t *testing.T) {
	in := `[{"spec":"int-alu","threads":1,"placement":"none","meter":"mock","iters":1000},` +
		`{"spec":"int-alu\nx","threads":1,"placement":"none","meter":"mock","iters":1000}]`
	for _, name := range []string{"db.jsonl", "db-store"} {
		dir := t.TempDir()
		from := filepath.Join(dir, "in.json")
		if err := os.WriteFile(from, []byte(in), 0o644); err != nil {
			t.Fatal(err)
		}
		db := filepath.Join(dir, name)
		var stdout, stderr bytes.Buffer
		err := run(context.Background(), []string{"store", "add", "--db=" + db, "--from=" + from}, &stdout, &stderr)
		if err == nil || !strings.Contains(err.Error(), "newline") {
			t.Fatalf("%s: store add = %v, want the newline key refused", name, err)
		}
		if _, statErr := os.Stat(db); statErr != nil {
			continue // nothing was created, so nothing was kept
		}
		keys := runOK(t, "store", "query", "--db="+db, "--keys")
		if strings.Contains(keys.String(), "int-alu") {
			t.Errorf("%s: failed add kept part of its input: %s", name, keys)
		}
	}
}
