package store

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"iter"
	"os"
	"path/filepath"
	"strings"
	"time"

	"energybench/internal/harness"
	"energybench/internal/par"
)

// Store is an open handle on a result store in either layout. It is the
// single read/append surface: Query streams deduped records (a Filter on
// Keys is a point lookup), Keys exports the configuration-key set without
// deserializing results, Append adds records (flushed per call), and
// Compact rewrites the store deduplicated. A Store is not safe for
// concurrent use; the harness serializes sink access already.
type Store struct {
	path    string
	sharded bool

	// segTarget is the byte size at which the active segment of a sharded
	// store is sealed and a new one started.
	segTarget int64

	man manifest    // sharded only
	fw  *fileWriter // open single-file appender, nil until first Append
	sw  *segWriter  // open active-segment appender, nil until first Append

	// scratch marks compaction's new-generation writer: it shares the store
	// directory but must never persist its manifest — its segments stay
	// orphans until the owning store commits the swap.
	scratch bool
}

// Open opens an existing store at path, auto-detecting the layout: a
// directory is a sharded segment store, a plain file is a single-file JSONL
// store. A missing path is an fs.ErrNotExist error — use Create when the
// store may not exist yet.
func Open(path string) (*Store, error) {
	fi, err := os.Stat(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if fi.IsDir() {
		return openSharded(path)
	}
	return &Store{path: path}, nil
}

// Create opens the store at path, creating it if missing: paths ending in
// .jsonl or .json become single-file stores (the original format, so
// existing flag usage keeps producing plain files), anything else becomes a
// sharded segment store directory.
func Create(path string) (*Store, error) {
	fi, err := os.Stat(path)
	if err == nil {
		if fi.IsDir() {
			return openSharded(path)
		}
		return &Store{path: path}, nil
	}
	if !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("store: %w", err)
	}
	if strings.HasSuffix(path, ".jsonl") || strings.HasSuffix(path, ".json") {
		// Created empty now, as a sharded store's directory is, so a store
		// that receives no records still opens.
		f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if err := f.Close(); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		return &Store{path: path}, nil
	}
	return initSharded(path)
}

// Segments returns the number of live segment files (1 for a single-file
// store).
func (s *Store) Segments() int {
	if !s.sharded {
		return 1
	}
	return len(s.man.Segments)
}

// Close flushes and fsyncs any open appender and, for sharded stores,
// updates the manifest with the active segment's record count, so a crash
// or SIGINT after Close cannot lose the tail.
func (s *Store) Close() error {
	var errs []error
	if s.fw != nil {
		errs = append(errs, s.fw.close(true))
		s.fw = nil
	}
	if s.sw != nil {
		errs = append(errs, s.closeActiveSegment())
		s.sw = nil
	}
	return errors.Join(errs...)
}

// flush makes everything appended so far visible to readers (and durable
// against process death, though not yet fsync'd — Close does that).
func (s *Store) flush() error {
	if s.fw != nil {
		return s.fw.flush()
	}
	if s.sw != nil {
		return s.sw.flush()
	}
	return nil
}

// Append writes the results as records stamped with the current time and
// returns how many were written. Every key is checked before anything is
// written, so a call that fails on a key writes nothing. Records are encoded
// a window at a time on every CPU (a single record on the caller) and
// written in order. The write is flushed (readable by a fresh Open) before
// Append returns, so per-configuration sinks stay durable against
// interrupts mid-sweep; fsync happens on Close.
func (s *Store) Append(results []harness.Result) (int, error) {
	now := time.Now().UTC()
	keys := make([]string, len(results))
	for i, res := range results {
		keys[i] = harness.ResultKey(res)
		if strings.Contains(keys[i], "\n") {
			// A sidecar index holds one key per line.
			return 0, fmt.Errorf("store: key %q contains a newline", keys[i])
		}
	}
	step := par.Window()
	window := make([]Record, 0, min(step, len(results)))
	for start := 0; start < len(results); start += step {
		window = window[:0]
		for i := start; i < min(start+step, len(results)); i++ {
			window = append(window, Record{V: SchemaVersion, Key: keys[i], SavedAt: now, Result: results[i]})
		}
		lines, err := par.Map(window, encodeRecord)
		if err != nil {
			return 0, err
		}
		for i, line := range lines {
			if err := s.appendRaw(window[i].Key, line); err != nil {
				return 0, err
			}
		}
	}
	if err := s.flush(); err != nil {
		return 0, err
	}
	return len(results), nil
}

// appendRaw appends one pre-encoded record line (no trailing newline)
// under the given key, buffered until the next flush.
func (s *Store) appendRaw(key string, line []byte) error {
	if s.sharded {
		return s.shardAppendRaw(key, line)
	}
	return s.fileAppendRaw(line)
}

// loc addresses one raw record line inside the store.
type loc struct {
	seg int // index into the manifest's segments; 0 for single-file stores
	off int64
	n   int // record bytes, excluding the trailing newline
}

// index is the dedup view of a store: every live key in first-appearance
// order, each mapped to the location of its winning (last-written) record.
type index struct {
	order  []string
	winner map[string]loc
}

func newIndex() *index {
	return &index{winner: map[string]loc{}}
}

func (ix *index) add(key string, l loc) {
	if _, ok := ix.winner[key]; !ok {
		ix.order = append(ix.order, key)
	}
	ix.winner[key] = l
}

// buildIndex folds every segment's entries, in order, into the dedup
// index (a single-file store is one segment without a sidecar). Keys come
// from sidecars or envelope scans; results are never decoded. The filter
// prunes at the key level (Filter.MatchKey), so a selective query over a
// sharded store touches no record bytes for non-matching configurations.
// Pruning before dedup is sound because every occurrence of a key shares
// the same filter verdict.
func (s *Store) buildIndex(f Filter) (*index, error) {
	if err := s.flush(); err != nil {
		return nil, err
	}
	ix := newIndex()
	for i := range s.Segments() {
		entries, err := s.segEntries(i, false)
		if err != nil {
			return nil, err
		}
		for _, e := range entries {
			if f.MatchKey(e.key) {
				ix.add(e.key, loc{seg: i, off: e.off, n: e.n})
			}
		}
	}
	return ix, nil
}

// envelope is the per-line metadata an index scan decodes — deliberately
// excluding the result, which can be orders of magnitude larger.
type envelope struct {
	V   int    `json:"v"`
	Key string `json:"key"`
}

// scanEnvelopes indexes the record lines in [from, to) of f, a range that
// starts and ends on line boundaries inside the file's newline-terminated
// prefix. Every non-empty line there must be a record of a supported
// schema: only the bytes after the last newline can be a torn append, and
// the range never reaches them.
func scanEnvelopes(f *os.File, from, to int64) ([]sidecarEntry, error) {
	var entries []sidecarEntry
	r := bufio.NewReaderSize(io.NewSectionReader(f, from, to-from), 64<<10)
	for off := from; off < to; {
		line, err := r.ReadBytes('\n')
		if err != nil {
			return nil, fmt.Errorf("store: %s: %w", f.Name(), err)
		}
		content := line[:len(line)-1]
		if len(content) > maxLine {
			return nil, fmt.Errorf("store: %s: line at offset %d exceeds %d bytes", f.Name(), off, maxLine)
		}
		if len(content) > 0 {
			var env envelope
			if err := json.Unmarshal(content, &env); err != nil {
				return nil, fmt.Errorf("store: %s: record at offset %d: %w", f.Name(), off, err)
			}
			if env.V < 1 || env.V > SchemaVersion {
				return nil, fmt.Errorf("store: %s: record at offset %d: schema v%d not supported (this build reads up to v%d)",
					f.Name(), off, env.V, SchemaVersion)
			}
			if strings.Contains(env.Key, "\n") {
				return nil, fmt.Errorf("store: %s: record at offset %d: key contains a newline", f.Name(), off)
			}
			entries = append(entries, sidecarEntry{off: off, n: len(content), key: env.Key})
		}
		off += int64(len(line))
	}
	return entries, nil
}

// Keys returns the full configuration-key set without deserializing any
// result, reading only sidecar indexes (sharded) or line envelopes (file).
// A store that exists but holds nothing yields an empty set.
func (s *Store) Keys() (map[string]bool, error) {
	ix, err := s.buildIndex(Filter{})
	if err != nil {
		if !s.sharded && errors.Is(err, fs.ErrNotExist) {
			// A single-file store created lazily but never appended to.
			return map[string]bool{}, nil
		}
		return nil, err
	}
	keys := make(map[string]bool, len(ix.order))
	for _, k := range ix.order {
		keys[k] = true
	}
	return keys, nil
}

// Query streams the records passing the filter, deduped by configuration
// key (last write wins) in first-appearance order, without materializing
// the corpus: records are read a window at a time, decoded on every CPU,
// and yielded in order once the whole window is decoded, so no goroutine
// outlives a yield. The iterator yields at most one non-nil error, as its
// final element, after every record before the one that failed.
func (s *Store) Query(f Filter) iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		ix, err := s.buildIndex(f)
		if err != nil {
			yield(Record{}, err)
			return
		}
		files := map[int]*os.File{}
		defer func() {
			for _, fh := range files {
				fh.Close()
			}
		}()
		step := par.Window()
		raws := make([][]byte, 0, min(step, len(ix.order)))
		for start := 0; start < len(ix.order); start += step {
			keys := ix.order[start:min(start+step, len(ix.order))]
			raws = raws[:0]
			var readErr error
			for _, key := range keys {
				raw, err := s.readLoc(files, ix.winner[key])
				if err != nil {
					readErr = err
					break
				}
				raws = append(raws, raw)
			}
			recs, err := par.Map(raws, decodeRecord)
			for _, rec := range recs {
				if f.Match(rec.Result) && !yield(rec, nil) {
					return
				}
			}
			if err != nil {
				yield(Record{}, fmt.Errorf("store: %s: record %q: %w", s.path, keys[len(recs)], err))
				return
			}
			if readErr != nil {
				yield(Record{}, readErr)
				return
			}
		}
	}
}

// decodeRecord decodes one record line into a fresh Record (decoding into
// a reused one would share its slices and maps with records already
// yielded) and checks its schema version.
func decodeRecord(raw []byte) (Record, error) {
	var rec Record
	if err := json.Unmarshal(raw, &rec); err != nil {
		return Record{}, err
	}
	if rec.V < 1 || rec.V > SchemaVersion {
		return Record{}, fmt.Errorf("schema v%d not supported (this build reads up to v%d)", rec.V, SchemaVersion)
	}
	return rec, nil
}

// readLoc reads the raw bytes of one record, caching open segment files
// across calls within a query.
func (s *Store) readLoc(files map[int]*os.File, l loc) ([]byte, error) {
	fh, ok := files[l.seg]
	if !ok {
		var err error
		if fh, err = os.Open(s.segPath(l.seg)); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		files[l.seg] = fh
	}
	buf := make([]byte, l.n)
	if _, err := fh.ReadAt(buf, l.off); err != nil {
		return nil, fmt.Errorf("store: %s: %w", fh.Name(), err)
	}
	return buf, nil
}

// Compact rewrites the store deduplicated, preserving record bytes exactly
// and first-appearance key order. Memory holds keys and offsets, never the
// record payloads: one index pass over the envelopes, then a raw byte copy
// of each winning record. Single-file stores are rewritten through a temp
// file and rename, sharded stores into a fresh segment generation committed
// by one manifest swap, so a crash leaves either the old or the new store
// intact.
func (s *Store) Compact() (kept int, err error) {
	// Seal any open appender first: its file is about to be replaced.
	if err := s.Close(); err != nil {
		return 0, err
	}
	ix, err := s.buildIndex(Filter{})
	if err != nil {
		return 0, err
	}
	if s.sharded {
		return s.shardCompact(ix)
	}
	return s.fileCompact(ix)
}

// Shard converts the store at path to the sharded segment layout in place,
// compacting as it goes, and returns the number of records kept. A store
// that is already sharded is just compacted. The migration builds the new
// store in a sibling temp directory and swaps it in with renames (the old
// file briefly persists as path.pre-shard), so a crash leaves a recoverable
// state at every step; configuration keys and record bytes are preserved
// exactly, so resume key sets are identical before and after.
func Shard(path string) (kept int, err error) {
	src, err := Open(path)
	if err != nil {
		return 0, err
	}
	defer src.Close()
	if src.sharded {
		return src.Compact()
	}
	ix, err := src.buildIndex(Filter{})
	if err != nil {
		return 0, err
	}

	tmp := path + ".shard-tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	dst, err := initSharded(tmp)
	if err != nil {
		return 0, err
	}
	if err := src.copyRaw(ix, dst); err != nil {
		dst.Close()
		os.RemoveAll(tmp)
		return 0, err
	}
	if err := dst.Close(); err != nil {
		os.RemoveAll(tmp)
		return 0, err
	}

	backup := path + ".pre-shard"
	if err := os.Rename(path, backup); err != nil {
		os.RemoveAll(tmp)
		return 0, fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		// Roll the original back so the store is never left missing.
		os.Rename(backup, path)
		os.RemoveAll(tmp)
		return 0, fmt.Errorf("store: %w", err)
	}
	if err := os.Remove(backup); err != nil {
		return 0, fmt.Errorf("store: removing pre-shard backup: %w", err)
	}
	return len(ix.order), nil
}

// copyRaw streams every winning record of ix, in order, into dst as raw
// bytes; the caller closes dst to make them durable.
func (s *Store) copyRaw(ix *index, dst *Store) error {
	files := map[int]*os.File{}
	defer func() {
		for _, fh := range files {
			fh.Close()
		}
	}()
	for _, key := range ix.order {
		raw, err := s.readLoc(files, ix.winner[key])
		if err != nil {
			return err
		}
		if err := dst.appendRaw(key, raw); err != nil {
			return err
		}
	}
	return nil
}

// writeFileAtomic writes data to path via a sibling temp file and rename,
// then best-effort fsyncs the directory so the rename itself is durable.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir fsyncs a directory; failures are ignored (some filesystems
// refuse directory fsync) — durability degrades, correctness does not.
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}

// encodeRecord marshals one record as a JSONL line without the trailing
// newline.
func encodeRecord(rec Record) ([]byte, error) {
	b, err := json.Marshal(rec)
	if err != nil {
		return nil, fmt.Errorf("store: encode: %w", err)
	}
	return b, nil
}
