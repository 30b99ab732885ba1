package store

// This file implements the sharded segment layout: a store directory
// holding MANIFEST.json (the list of live segments, in order), append-only
// segment files seg-NNNNNNNN.jsonl of ordinary store records, and one
// sidecar index seg-NNNNNNNN.keys per segment with a line per record
// ("offset length key"), so key scans and point lookups read only the tiny
// sidecars. Segments are the source of truth: a missing, torn, or stale
// sidecar is rebuilt from its segment, and each segment, like a single-file
// store, is its newline-terminated prefix. New segments are registered in
// the manifest before records land in them, so every record a reader can
// lose is confined to the torn tail of one segment; manifest updates go
// through an atomic temp-file rename.

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
)

const (
	manifestName = "MANIFEST.json"
	// manifestFormat is the sharded-layout version this build writes;
	// readers reject newer ones.
	manifestFormat = 1
	segPrefix      = "seg-"
	segSuffix      = ".jsonl"
	idxSuffix      = ".keys"
	// defaultSegTarget is the size at which the active segment is sealed
	// and a new one started. Small enough that compaction and backups move
	// in modest units, large enough that a fleet-scale corpus stays in the
	// hundreds of segments, not millions of files.
	defaultSegTarget = 4 << 20
)

// manifest is the content of MANIFEST.json.
type manifest struct {
	Format   int           `json:"format"`
	Schema   int           `json:"schema"`
	Segments []segmentInfo `json:"segments"`
}

// segmentInfo is one live segment. Records is best-effort bookkeeping
// (updated when a segment is sealed or the store is closed); readers never
// rely on it.
type segmentInfo struct {
	Name    string `json:"name"`
	Records int    `json:"records,omitempty"`
}

// sidecarEntry is one decoded index line: the record at [off, off+n) of
// its segment, stored under key.
type sidecarEntry struct {
	off int64
	n   int
	key string
}

// segWriter is the open appender on the active (last) segment.
type segWriter struct {
	f       *os.File
	kf      *os.File // sidecar
	bw, kbw *bufio.Writer
	off     int64 // clean end of the segment == offset of the next record
	records int
}

// initSharded creates an empty sharded store directory at path.
func initSharded(path string) (*Store, error) {
	if err := os.MkdirAll(path, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{path: path, sharded: true, segTarget: defaultSegTarget, man: manifest{Format: manifestFormat, Schema: SchemaVersion}}
	if err := s.writeManifest(); err != nil {
		return nil, err
	}
	return s, nil
}

// openSharded opens an existing store directory. A directory without a
// manifest is only accepted when empty but for manifest temp files (it
// becomes a fresh store) — an arbitrary non-store directory must not be
// silently adopted.
func openSharded(path string) (*Store, error) {
	data, err := os.ReadFile(filepath.Join(path, manifestName))
	if errors.Is(err, fs.ErrNotExist) {
		entries, derr := os.ReadDir(path)
		if derr != nil {
			return nil, fmt.Errorf("store: %w", derr)
		}
		for _, e := range entries {
			// A crash during a new store's first manifest write leaves only
			// the manifest's temp file: the directory is still empty.
			if !strings.HasPrefix(e.Name(), manifestName+".tmp-") {
				return nil, fmt.Errorf("store: %s: directory has no %s and is not empty (not a sharded store)", path, manifestName)
			}
		}
		return initSharded(path)
	}
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	man, err := decodeManifest(data)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", path, err)
	}
	return &Store{path: path, sharded: true, segTarget: defaultSegTarget, man: man}, nil
}

// decodeManifest decodes MANIFEST.json, refusing a format or schema newer
// than this build and any segment name the writer would not make (seg-,
// decimal digits, .jsonl): queries read the listed segments, appends
// truncate the last and compaction deletes them all, so a name such as
// ../victim.jsonl must refuse the store, not reach a file outside it.
func decodeManifest(data []byte) (manifest, error) {
	var man manifest
	if err := json.Unmarshal(data, &man); err != nil {
		return manifest{}, fmt.Errorf("decoding manifest: %w", err)
	}
	if man.Format > manifestFormat {
		return manifest{}, fmt.Errorf("manifest format %d not supported (this build reads up to %d)", man.Format, manifestFormat)
	}
	if man.Schema > SchemaVersion {
		return manifest{}, fmt.Errorf("store schema v%d not supported (this build reads up to v%d)", man.Schema, SchemaVersion)
	}
	for _, seg := range man.Segments {
		digits, pre := strings.CutPrefix(seg.Name, segPrefix)
		digits, suf := strings.CutSuffix(digits, segSuffix)
		if !pre || !suf || digits == "" || strings.Trim(digits, "0123456789") != "" {
			return manifest{}, fmt.Errorf("manifest lists %q, which is not a segment name (%sN%s)", seg.Name, segPrefix, segSuffix)
		}
	}
	return man, nil
}

// segPath is segment i's file: the store file itself in the single-file
// layout.
func (s *Store) segPath(i int) string {
	if !s.sharded {
		return s.path
	}
	return filepath.Join(s.path, s.man.Segments[i].Name)
}

func idxPath(segPath string) string {
	return strings.TrimSuffix(segPath, segSuffix) + idxSuffix
}

// writeManifest persists the manifest atomically, stamping the schema this
// build writes (never downgrading a newer one, which open rejects anyway).
// Scratch handles (compaction's new-generation writer) keep the manifest in
// memory only: their segments stay unreferenced orphans until the owning
// store commits the swap.
func (s *Store) writeManifest() error {
	if s.man.Schema < SchemaVersion {
		s.man.Schema = SchemaVersion
	}
	s.man.Format = manifestFormat
	if s.scratch {
		return nil
	}
	data, err := json.MarshalIndent(s.man, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding manifest: %w", err)
	}
	if err := writeFileAtomic(filepath.Join(s.path, manifestName), append(data, '\n')); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// segEntries returns segment i's index entries: one per record in the
// segment's newline-terminated prefix. The bytes after the last newline
// are a torn tail, which readers ignore and the next append truncates. A
// sidecar is trusted only as far as it is consistent with the segment:
// entries must tile the segment contiguously from offset 0 and stay inside
// that prefix. Everything past the trusted prefix (the whole file, for the
// single-file layout) is scanned from the segment itself. When persist is
// true and the sidecar on disk is not exactly the returned entries, the
// repaired sidecar is written back, so an appender never adds entries after
// stale ones that a torn segment no longer backs.
func (s *Store) segEntries(i int, persist bool) ([]sidecarEntry, error) {
	segPath := s.segPath(i)
	f, err := os.Open(segPath)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	clean, err := cleanLength(f)
	if err != nil {
		return nil, fmt.Errorf("store: %s: %w", segPath, err)
	}

	var entries []sidecarEntry
	var covered int64
	whole := false
	if s.sharded {
		entries, covered, whole = readSidecar(idxPath(segPath), clean)
	}
	if covered < clean {
		scanned, err := scanEnvelopes(f, covered, clean)
		if err != nil {
			return nil, err
		}
		entries = append(entries, scanned...)
		whole = false
	}
	if persist && !whole {
		if err := writeSidecar(idxPath(segPath), entries); err != nil {
			return nil, err
		}
	}
	return entries, nil
}

// readSidecar reads the sidecar at path and parses it against a segment
// whose clean prefix is clean bytes long (see parseSidecar). An unreadable
// sidecar covers nothing.
func readSidecar(path string, clean int64) (entries []sidecarEntry, covered int64, whole bool) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, 0, false
	}
	return parseSidecar(data, clean)
}

// parseSidecar decodes sidecar entries, stopping at the first line that is
// torn, malformed, discontiguous, or pointing past the segment's clean
// prefix; covered is the segment byte length the returned entries account
// for, and whole reports whether they account for every sidecar byte. Any
// failure just shrinks the trusted prefix — the segment scan rebuilds the
// rest.
func parseSidecar(data []byte, clean int64) (entries []sidecarEntry, covered int64, whole bool) {
	for len(data) > 0 {
		nl := bytes.IndexByte(data, '\n')
		if nl < 0 {
			break // torn sidecar tail
		}
		offStr, rest, ok := strings.Cut(string(data[:nl]), " ")
		if !ok {
			break
		}
		nStr, key, ok := strings.Cut(rest, " ")
		if !ok {
			break
		}
		off, err1 := strconv.ParseInt(offStr, 10, 64)
		n, err2 := strconv.Atoi(nStr)
		// off == covered <= clean, so clean-off cannot overflow, where
		// off+n+1 can for a corrupt length near the integer maximum.
		if err1 != nil || err2 != nil || n <= 0 || off != covered || int64(n) >= clean-off {
			break
		}
		entries = append(entries, sidecarEntry{off: off, n: n, key: key})
		covered = off + int64(n) + 1
		data = data[nl+1:]
	}
	return entries, covered, len(data) == 0
}

// writeSidecar persists a rebuilt sidecar atomically.
func writeSidecar(path string, entries []sidecarEntry) error {
	var buf bytes.Buffer
	for _, e := range entries {
		fmt.Fprintf(&buf, "%d %d %s\n", e.off, e.n, e.key)
	}
	if err := writeFileAtomic(path, buf.Bytes()); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// shardAppendRaw buffers one record line into the active segment, rolling
// to a fresh segment once the active one reaches the target size.
func (s *Store) shardAppendRaw(key string, line []byte) error {
	if s.sw == nil {
		if err := s.openActiveSegment(); err != nil {
			return err
		}
	}
	if s.sw.off >= s.segTarget {
		if err := s.rollSegment(); err != nil {
			return err
		}
	}
	w := s.sw
	if _, err := w.bw.Write(line); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := w.bw.WriteByte('\n'); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if _, err := fmt.Fprintf(w.kbw, "%d %d %s\n", w.off, len(line), key); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	w.off += int64(len(line)) + 1
	w.records++
	return nil
}

// openActiveSegment resumes appending to the last manifest segment when it
// is still under the target size, repairing its sidecar and truncating any
// torn tail first; otherwise it creates a fresh segment.
func (s *Store) openActiveSegment() error {
	n := len(s.man.Segments)
	if n == 0 {
		return s.rollSegment()
	}
	last := n - 1
	entries, err := s.segEntries(last, true)
	if err != nil {
		return err
	}
	segPath := s.segPath(last)
	f, err := os.OpenFile(segPath, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := truncateTornLine(f); err != nil {
		f.Close()
		return fmt.Errorf("store: %s: %w", segPath, err)
	}
	off, err := f.Seek(0, io.SeekEnd)
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	if off >= s.segTarget {
		f.Close()
		return s.rollSegment()
	}
	kf, err := os.OpenFile(idxPath(segPath), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		f.Close()
		return fmt.Errorf("store: %w", err)
	}
	s.sw = &segWriter{
		f: f, kf: kf,
		bw: bufio.NewWriter(f), kbw: bufio.NewWriter(kf),
		off: off, records: len(entries),
	}
	return nil
}

// rollSegment seals the active segment (flush, fsync, manifest record
// count) and registers a brand-new one in the manifest *before* any record
// lands in it, so readers can always find every durable record.
func (s *Store) rollSegment() error {
	if s.sw != nil {
		if err := s.closeActiveSegment(); err != nil {
			return err
		}
		s.sw = nil
	}
	f, kf, name, err := s.createSegmentFiles()
	if err != nil {
		return err
	}
	s.man.Segments = append(s.man.Segments, segmentInfo{Name: name})
	if err := s.writeManifest(); err != nil {
		f.Close()
		kf.Close()
		s.man.Segments = s.man.Segments[:len(s.man.Segments)-1]
		return err
	}
	s.sw = &segWriter{f: f, kf: kf, bw: bufio.NewWriter(f), kbw: bufio.NewWriter(kf)}
	return nil
}

// createSegmentFiles allocates the next free segment name (numbering past
// both the manifest and any orphan files a crash left behind) and creates
// the segment plus its sidecar.
func (s *Store) createSegmentFiles() (f, kf *os.File, name string, err error) {
	next := 1
	for _, seg := range s.man.Segments {
		var n int
		if _, err := fmt.Sscanf(seg.Name, segPrefix+"%d"+segSuffix, &n); err == nil && n >= next {
			next = n + 1
		}
	}
	for ; ; next++ {
		name = fmt.Sprintf("%s%08d%s", segPrefix, next, segSuffix)
		path := filepath.Join(s.path, name)
		f, err = os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_RDWR, 0o644)
		if errors.Is(err, fs.ErrExist) {
			continue // orphan from an interrupted run; skip its name
		}
		if err != nil {
			return nil, nil, "", fmt.Errorf("store: %w", err)
		}
		kf, err = os.OpenFile(idxPath(path), os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
		if err != nil {
			f.Close()
			return nil, nil, "", fmt.Errorf("store: %w", err)
		}
		return f, kf, name, nil
	}
}

func (w *segWriter) flush() error {
	// Segment before sidecar: a sidecar entry must never point at bytes
	// that are not yet in the segment.
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("store: flush: %w", err)
	}
	if err := w.kbw.Flush(); err != nil {
		return fmt.Errorf("store: flush: %w", err)
	}
	return nil
}

// closeActiveSegment flushes and fsyncs the active segment and its sidecar
// and records the segment's record count in the manifest — the durability
// point a sink reaches through Close.
func (s *Store) closeActiveSegment() error {
	w := s.sw
	if err := w.flush(); err != nil {
		return err
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	if err := w.kf.Sync(); err != nil {
		return fmt.Errorf("store: fsync: %w", err)
	}
	var errs []error
	if err := w.f.Close(); err != nil {
		errs = append(errs, fmt.Errorf("store: close: %w", err))
	}
	if err := w.kf.Close(); err != nil {
		errs = append(errs, fmt.Errorf("store: close: %w", err))
	}
	if len(s.man.Segments) > 0 {
		s.man.Segments[len(s.man.Segments)-1].Records = w.records
		if err := s.writeManifest(); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// shardCompact rewrites every winning record into a fresh generation of
// segments, commits them with one atomic manifest swap, then deletes the
// old segment files. A crash before the manifest swap leaves the old store
// fully intact (the part-written new segments are orphans, skipped by the
// segment namer); a crash after it leaves the new store intact with
// harmless stale files.
func (s *Store) shardCompact(ix *index) (kept int, err error) {
	oldSegs := s.man.Segments

	// Write the new generation through a scratch handle sharing the
	// directory, so the real manifest is untouched until the swap below.
	// Its manifest starts as a copy of the old segment list, as namer input
	// only.
	dst := &Store{path: s.path, sharded: true, scratch: true, segTarget: s.segTarget,
		man: manifest{Format: manifestFormat, Schema: s.man.Schema, Segments: slices.Clone(oldSegs)}}
	// Force a brand-new segment now: the lazy append path would otherwise
	// resume the old generation's last segment, mixing generations and
	// leaving nothing new to commit.
	if err := dst.rollSegment(); err != nil {
		return 0, err
	}
	err = s.copyRaw(ix, dst)
	if cerr := dst.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	newSegs := dst.man.Segments[len(oldSegs):]

	// Commit: the manifest swap is the single point where readers move
	// from the old generation to the new.
	s.man.Segments = newSegs
	if err := s.writeManifest(); err != nil {
		s.man.Segments = oldSegs
		return 0, err
	}
	for _, seg := range oldSegs {
		os.Remove(filepath.Join(s.path, seg.Name))
		os.Remove(idxPath(filepath.Join(s.path, seg.Name)))
	}
	return len(ix.order), nil
}
