// Package durable is the engine's durability tier: a per-tenant
// write-ahead log of committed mutation batches plus periodic snapshots of
// the committed state, with recovery = newest valid snapshot + WAL-tail
// replay through the engine's own incremental write path. The package
// trusts that path's proven equivalences (incremental ≡ rebuild for the
// data graph, keyword postings and rank plans) instead of persisting
// derived state: a snapshot holds only the relational store and the raw
// score vectors, and everything else is rebuilt at recovery.
//
// All file I/O goes through the FS interface so the crash-restart harness
// can run the identical protocol against a fault-injecting in-memory
// implementation (MemFS) and enumerate every crash point.
package durable

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// isNotExist reports a missing-file error from any FS implementation.
func isNotExist(err error) bool { return errors.Is(err, fs.ErrNotExist) }

// FS is the slice of a filesystem the durability tier needs. Paths are
// slash-separated and relative to the FS root. Implementations must make
// the POSIX crash-consistency split explicit: File.Sync makes a file's
// content durable, but a created or renamed NAME survives a crash only
// after SyncDir on its parent directory.
type FS interface {
	// MkdirAll creates dir and its parents.
	MkdirAll(dir string) error
	// Create opens name for writing, truncating any existing file.
	Create(name string) (File, error)
	// Append opens name for appending, creating it if absent.
	Append(name string) (File, error)
	// ReadFile returns name's full content.
	ReadFile(name string) ([]byte, error)
	// Rename atomically replaces newName with oldName's file.
	Rename(oldName, newName string) error
	// Remove deletes a file.
	Remove(name string) error
	// RemoveAll deletes a directory tree.
	RemoveAll(dir string) error
	// Truncate cuts name to size bytes.
	Truncate(name string, size int64) error
	// ReadDir lists the entry names in dir, sorted; a missing dir is empty.
	ReadDir(dir string) ([]string, error)
	// SyncDir makes dir's current entry set durable (fsync of the
	// directory): created, renamed and removed names before this call
	// survive a crash after it.
	SyncDir(dir string) error
}

// File is a writable file handle.
type File interface {
	io.Writer
	// Sync makes everything written so far durable.
	Sync() error
	// Close releases the handle without implying durability.
	Close() error
}

// publish durably replaces dir/name with data: it writes data to name.tmp
// in one write (so the fault-injection op count, and the crash harness's
// cost, stay independent of size), fsyncs and closes it, renames it over
// name and fsyncs dir. A crash leaves the old file or the new one whole,
// and at worst an orphaned .tmp. Snapshots and the manifest both land
// this way.
func publish(fsys FS, dir, name string, data []byte) error {
	tmp := path.Join(dir, name+".tmp")
	f, err := fsys.Create(tmp)
	if err != nil {
		return fmt.Errorf("durable: create %s: %w", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		_ = f.Close()
		return fmt.Errorf("durable: write %s: %w", tmp, err)
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return fmt.Errorf("durable: sync %s: %w", tmp, err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("durable: close %s: %w", tmp, err)
	}
	if err := fsys.Rename(tmp, path.Join(dir, name)); err != nil {
		return fmt.Errorf("durable: publish %s: %w", name, err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("durable: sync dir %s after publishing %s: %w", dir, name, err)
	}
	return nil
}

// seqFile is one seq-named file of a tenant directory: a WAL segment (seq
// is its first record's) or a snapshot (seq is the last record it covers).
type seqFile struct {
	name string
	seq  uint64
}

// seqFiles lists dir's files named prefix<seq %016x>suffix, ascending by
// seq. A name that does not parse is not ours and is left alone.
func seqFiles(fsys FS, dir, prefix, suffix string) ([]seqFile, error) {
	names, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("durable: list %s*%s in %s: %w", prefix, suffix, dir, err)
	}
	var out []seqFile
	for _, name := range names {
		hex, okPrefix := strings.CutPrefix(name, prefix)
		hex, okSuffix := strings.CutSuffix(hex, suffix)
		if seq, err := strconv.ParseUint(hex, 16, 64); okPrefix && okSuffix && err == nil {
			out = append(out, seqFile{name: name, seq: seq})
		}
	}
	sort.Slice(out, func(a, b int) bool { return out[a].seq < out[b].seq })
	return out, nil
}

// DirFS is the production FS: the OS filesystem rooted at a directory.
type DirFS struct{ root string }

// NewDirFS returns an FS rooted at root (created on first use).
func NewDirFS(root string) *DirFS { return &DirFS{root: root} }

func (d *DirFS) path(name string) string { return filepath.Join(d.root, filepath.FromSlash(name)) }

func (d *DirFS) MkdirAll(dir string) error { return os.MkdirAll(d.path(dir), 0o755) }

func (d *DirFS) Create(name string) (File, error) { return os.Create(d.path(name)) }

func (d *DirFS) Append(name string) (File, error) {
	return os.OpenFile(d.path(name), os.O_WRONLY|os.O_APPEND|os.O_CREATE, 0o644)
}

func (d *DirFS) ReadFile(name string) ([]byte, error) { return os.ReadFile(d.path(name)) }

func (d *DirFS) Rename(oldName, newName string) error {
	return os.Rename(d.path(oldName), d.path(newName))
}

func (d *DirFS) Remove(name string) error { return os.Remove(d.path(name)) }

func (d *DirFS) RemoveAll(dir string) error { return os.RemoveAll(d.path(dir)) }

func (d *DirFS) Truncate(name string, size int64) error {
	return os.Truncate(d.path(name), size)
}

func (d *DirFS) ReadDir(dir string) ([]string, error) {
	entries, err := os.ReadDir(d.path(dir))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		names = append(names, e.Name())
	}
	sort.Strings(names)
	return names, nil
}

func (d *DirFS) SyncDir(dir string) error {
	f, err := os.Open(d.path(dir))
	if err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close() // surface the sync failure, not the close
		return fmt.Errorf("sync dir %s: %w", dir, err)
	}
	return f.Close()
}
