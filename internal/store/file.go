package store

// This file implements the single-file JSONL layout: the original store
// format, one record per line. For reads it is one segment without a
// sidecar, indexed by the same envelope scan (v and key, never the result
// payload) that repairs sharded sidecars, so Query/Keys semantics are
// identical across layouts.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// fileWriter is an open appender on a single-file store.
type fileWriter struct {
	f  *os.File
	bw *bufio.Writer
}

// fileAppendRaw opens the file on first use (creating it, and truncating a
// crash-torn trailing partial line — its record was already unrecoverable,
// and appending after it would corrupt the new record too), then buffers
// the line.
func (s *Store) fileAppendRaw(line []byte) error {
	if s.fw == nil {
		f, err := os.OpenFile(s.path, os.O_CREATE|os.O_RDWR, 0o644)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		if err := truncateTornLine(f); err != nil {
			f.Close()
			return fmt.Errorf("store: %w", err)
		}
		if _, err := f.Seek(0, io.SeekEnd); err != nil {
			f.Close()
			return fmt.Errorf("store: %w", err)
		}
		s.fw = &fileWriter{f: f, bw: bufio.NewWriter(f)}
	}
	if _, err := s.fw.bw.Write(line); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := s.fw.bw.WriteByte('\n'); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

func (w *fileWriter) flush() error {
	if err := w.bw.Flush(); err != nil {
		return fmt.Errorf("store: flush: %w", err)
	}
	return nil
}

func (w *fileWriter) close(sync bool) error {
	err := w.flush()
	if sync && err == nil {
		if serr := w.f.Sync(); serr != nil {
			err = fmt.Errorf("store: fsync: %w", serr)
		}
	}
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("store: close: %w", cerr)
	}
	return err
}

// cleanLength returns the byte length of the file's cleanly terminated
// prefix — everything up to and including the last newline — scanning
// backwards so a huge store is not read to find a torn tail.
func cleanLength(f *os.File) (int64, error) {
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	size := st.Size()
	if size == 0 {
		return 0, nil
	}
	buf := make([]byte, 64<<10)
	end := size
	for end > 0 {
		n := int64(len(buf))
		if n > end {
			n = end
		}
		if _, err := f.ReadAt(buf[:n], end-n); err != nil {
			return 0, err
		}
		for i := n - 1; i >= 0; i-- {
			if buf[i] == '\n' {
				return end - n + i + 1, nil
			}
		}
		end -= n
	}
	// No newline at all: the whole file is one torn line.
	return 0, nil
}

// truncateTornLine drops an unterminated final line left by a crash
// mid-append.
func truncateTornLine(f *os.File) error {
	clean, err := cleanLength(f)
	if err != nil {
		return err
	}
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if clean == st.Size() {
		return nil
	}
	return f.Truncate(clean)
}

// fileCompact rewrites the file keeping only each key's winning record,
// byte for byte, in first-appearance order. The rewrite goes through a
// temp file and rename, so a crash leaves either the old or the new store
// intact.
func (s *Store) fileCompact(ix *index) (kept int, err error) {
	tmp, err := os.CreateTemp(filepath.Dir(s.path), "store-compact-*")
	if err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	dst := &Store{path: tmp.Name()}
	err = s.copyRaw(ix, dst)
	if cerr := dst.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return 0, err
	}
	if err := os.Rename(tmp.Name(), s.path); err != nil {
		return 0, fmt.Errorf("store: %w", err)
	}
	syncDir(filepath.Dir(s.path))
	return len(ix.order), nil
}
