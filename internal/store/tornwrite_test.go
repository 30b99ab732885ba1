package store

import (
	"bytes"
	"encoding/json"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"energybench/internal/harness"
)

// storeFiles reads every file of a sharded store directory by name.
func storeFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = data
	}
	return files
}

// layDown writes files into a fresh store directory, as a crash left them.
func layDown(t *testing.T, files map[string][]byte) string {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "db-store")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, data := range files {
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// checkRecovers requires the store at path to open with exactly want's
// keys, a full query to agree, and one more append to add just its key.
func checkRecovers(t *testing.T, path string, want map[string]bool) {
	t.Helper()
	st, err := Open(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer st.Close()
	if keys, err := st.Keys(); err != nil || !maps.Equal(keys, want) {
		t.Fatalf("keys = %v, %v; want %v", keys, err, want)
	}
	queried := map[string]bool{}
	for _, rec := range collect(t, st, Filter{}) {
		queried[rec.Key] = true
	}
	if !maps.Equal(queried, want) {
		t.Fatalf("query = %v, want %v", queried, want)
	}
	added := mkResult("fp-mac", 3, "scatter")
	if _, err := st.Append([]harness.Result{added}); err != nil {
		t.Fatalf("append: %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	want = maps.Clone(want)
	want[harness.ResultKey(added)] = true
	if keys, err := keysOf(path); err != nil || !maps.Equal(keys, want) {
		t.Fatalf("keys after append = %v, %v; want %v", keys, err, want)
	}
}

// TestShardedRecoversTornWrites simulates a crash at every byte of the
// three files a sharded store rewrites: the active segment's sidecar, the
// segment itself, and the next manifest, whose temp file a crash before
// writeFileAtomic's rename leaves beside the old one. Each time, Open must
// give exactly the keys whose record lines end in a newline.
func TestShardedRecoversTornWrites(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "db-store")
	written := []harness.Result{mkResult("int-alu", 1, "none"), mkResult("chase-l1", 2, "compact")}
	appendTo(t, path, written...)
	base := storeFiles(t, path)
	seg, idx := "seg-00000001.jsonl", "seg-00000001.keys"
	if len(base) != 3 || base[seg] == nil || base[idx] == nil || base[manifestName] == nil {
		t.Fatalf("store files = %v, want one segment, its sidecar and the manifest", slices.Collect(maps.Keys(base)))
	}
	all := map[string]bool{}
	for _, r := range written {
		all[harness.ResultKey(r)] = true
	}

	t.Run("sidecar", func(t *testing.T) {
		for cut := range len(base[idx]) + 1 {
			files := maps.Clone(base)
			files[idx] = base[idx][:cut]
			checkRecovers(t, layDown(t, files), all)
		}
	})

	t.Run("segment", func(t *testing.T) {
		for cut := range len(base[seg]) + 1 {
			files := maps.Clone(base)
			files[seg] = base[seg][:cut]
			want := map[string]bool{}
			for i, line := range bytes.SplitAfter(base[seg][:cut], []byte("\n")) {
				if bytes.HasSuffix(line, []byte("\n")) {
					want[harness.ResultKey(written[i])] = true
				}
			}
			checkRecovers(t, layDown(t, files), want)
		}
	})

	// The next manifest registers a fresh segment, whose empty files exist
	// before the manifest write that crashed.
	var old manifest
	if err := json.Unmarshal(base[manifestName], &old); err != nil {
		t.Fatal(err)
	}
	next := &Store{path: t.TempDir(), sharded: true,
		man: manifest{Segments: append(slices.Clone(old.Segments), segmentInfo{Name: "seg-00000002.jsonl"})}}
	if err := next.writeManifest(); err != nil {
		t.Fatal(err)
	}
	nextMan := storeFiles(t, next.path)[manifestName]
	t.Run("next-manifest", func(t *testing.T) {
		for cut := range len(nextMan) + 1 {
			files := maps.Clone(base)
			files["seg-00000002.jsonl"], files["seg-00000002.keys"] = nil, nil
			files[manifestName+".tmp-1"] = nextMan[:cut]
			checkRecovers(t, layDown(t, files), all)
		}
	})

	// A crash during a new store's first manifest write leaves a directory
	// holding only the manifest's temp file: still an empty store.
	t.Run("first-manifest", func(t *testing.T) {
		fresh := filepath.Join(t.TempDir(), "new-store")
		if _, err := initSharded(fresh); err != nil {
			t.Fatal(err)
		}
		firstMan := storeFiles(t, fresh)[manifestName]
		for cut := range len(firstMan) + 1 {
			checkRecovers(t, layDown(t, map[string][]byte{manifestName + ".tmp-1": firstMan[:cut]}), map[string]bool{})
		}
	})
}
