package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
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

// lastWritten reads the store at path and returns each key's stored
// EnergyJ mean, which the tests below vary from write to write.
func lastWritten(t *testing.T, path string) map[string]float64 {
	t.Helper()
	recs, err := load(path)
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	out := map[string]float64{}
	for _, rec := range recs {
		out[rec.Key] = rec.Result.EnergyJ.Mean
	}
	return out
}

// TestShardedCompactionRecoversCuts cuts a compaction of a sharded store
// holding duplicates at every step it can crash: while it writes the new
// generation's segments and sidecars beside the old one, while it writes
// the manifest that commits them, and after that commit, while it deletes
// the old generation's files one by one. Every state must open with the
// same keys and each key's last-written record.
func TestShardedCompactionRecoversCuts(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "db-store")
	st, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	st.segTarget = 512
	r, other := mkResult("int-alu", 1, "none"), mkResult("chase-l1", 2, "compact")
	for i := range 3 {
		r.EnergyJ.Mean, other.EnergyJ.Mean = float64(i), float64(10+i)
		if _, err := st.Append([]harness.Result{r, other}); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	old := storeFiles(t, path)
	want := map[string]float64{harness.ResultKey(r): 2, harness.ResultKey(other): 12}
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}

	// The new generation, from a compaction of a copy that rolls its
	// segments small enough to write more than one.
	copied := layDown(t, old)
	st, err = Open(copied)
	if err != nil {
		t.Fatal(err)
	}
	st.segTarget = 256
	if _, err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	compacted := storeFiles(t, copied)
	var written, deleted []string // in the order compaction writes and deletes them
	for name := range compacted {
		if _, ok := old[name]; !ok {
			written = append(written, name)
		}
	}
	for name := range old {
		if _, ok := compacted[name]; !ok {
			deleted = append(deleted, name)
		}
	}
	slices.Sort(written)
	slices.Sort(deleted)
	if len(old) < 5 || len(written) < 4 {
		t.Fatalf("old store files %v, new ones %v; want at least two segments in each generation",
			slices.Sorted(maps.Keys(old)), written)
	}

	check := func(t *testing.T, files map[string][]byte) {
		t.Helper()
		dir := layDown(t, files)
		if got := lastWritten(t, dir); !maps.Equal(got, want) {
			t.Fatalf("records %v, want %v", got, want)
		}
		checkRecovers(t, dir, keys)
	}
	t.Run("new-generation", func(t *testing.T) {
		for i, name := range written {
			for cut := range len(compacted[name]) + 1 {
				files := maps.Clone(old)
				for _, done := range written[:i] {
					files[done] = compacted[done]
				}
				files[name] = compacted[name][:cut]
				check(t, files)
			}
		}
	})
	t.Run("next-manifest", func(t *testing.T) {
		for cut := range len(compacted[manifestName]) + 1 {
			files := maps.Clone(old)
			for _, name := range written {
				files[name] = compacted[name]
			}
			files[manifestName+".tmp-1"] = compacted[manifestName][:cut]
			check(t, files)
		}
	})
	t.Run("old-generation-deleted", func(t *testing.T) {
		for gone := range len(deleted) + 1 {
			files := maps.Clone(compacted)
			for _, name := range deleted[gone:] {
				files[name] = old[name]
			}
			check(t, files)
		}
	})
}

// TestOpenRollsBackInterruptedShard lays down what a Shard migration that
// stopped between its two renames leaves: nothing at the store's path, the
// old single-file store at path.pre-shard and the complete new one at
// path.shard-tmp. Open, and Create followed by Append, must find the
// stored records, and the migration's leftovers must be gone.
func TestOpenRollsBackInterruptedShard(t *testing.T) {
	t.Parallel()
	for _, via := range []string{"open", "create"} {
		dir := t.TempDir()
		path := filepath.Join(dir, "db.jsonl")
		r, other := mkResult("int-alu", 1, "none"), mkResult("chase-l1", 2, "compact")
		appendTo(t, path, r, other)
		r.EnergyJ.Mean = 7
		appendTo(t, path, r)
		want := map[string]float64{harness.ResultKey(r): 7, harness.ResultKey(other): 10}
		keys := map[string]bool{harness.ResultKey(r): true, harness.ResultKey(other): true}

		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		migrated := filepath.Join(dir, "copy.jsonl")
		if err := os.WriteFile(migrated, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Shard(migrated); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(migrated, path+shardTmp); err != nil {
			t.Fatal(err)
		}
		if err := os.Rename(path, path+preShard); err != nil {
			t.Fatal(err)
		}

		if via == "open" {
			if got := lastWritten(t, path); !maps.Equal(got, want) {
				t.Fatalf("open: records %v, want %v", got, want)
			}
			checkRecovers(t, path, keys)
		} else {
			added := mkResult("fp-mac", 3, "scatter")
			appendTo(t, path, added)
			keys[harness.ResultKey(added)] = true
			if got, err := keysOf(path); err != nil || !maps.Equal(got, keys) {
				t.Fatalf("create: keys %v, %v; want %v", got, err, keys)
			}
		}
		for _, leftover := range []string{path + shardTmp, path + preShard} {
			if _, err := os.Lstat(leftover); !errors.Is(err, fs.ErrNotExist) {
				t.Errorf("%s: %s still there after the roll-back (%v)", via, leftover, err)
			}
		}
	}
}
