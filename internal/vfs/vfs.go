// Package vfs abstracts the filesystem underneath the durable state
// the simulation stack depends on — the logs experiments.Checkpoint
// writes (the result store, runs.jsonl, and the service admission
// log, queue.jsonl), their shared quarantine file, and the cluster's
// assignment audit log. Two implementations matter:
//
//   - OS: the production backend. Plain os calls, plus WriteFileAtomic
//     implementing the write-tmp / fsync / rename / fsync-dir
//     discipline that makes replacement writes crash-atomic.
//   - Mem: a crashable in-memory filesystem for tests. Every file
//     tracks what has been fsynced separately from what has merely
//     been written; Crash() models a kill -9 or power loss by
//     reverting each file to its synced content plus a seeded,
//     possibly-torn prefix of the unsynced tail.
//
// Faulty (faulty.go) wraps any FS with a deterministic, seeded
// schedule of injected failures — ENOSPC, EIO, short writes, fsync
// and rename failure — so the storage layer's recovery paths can be
// exercised the way Triage exercises metadata under eviction pressure:
// adversarially, not just on the happy path.
package vfs

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
)

// File is the subset of *os.File the storage layer writes through.
// Writes are only durable after a successful Sync.
type File interface {
	io.Writer
	io.Seeker
	// Sync flushes the file's written data to stable storage.
	Sync() error
	// Truncate cuts the file to size bytes (used to drop torn tails).
	Truncate(size int64) error
	Close() error
}

// FS is the filesystem surface the durable stores are written
// against. Implementations must be safe for concurrent use.
type FS interface {
	MkdirAll(path string, perm fs.FileMode) error
	ReadFile(path string) ([]byte, error)
	// OpenFile opens path for writing with os.OpenFile semantics
	// (flags O_CREATE, O_WRONLY, O_APPEND are the ones used here).
	OpenFile(path string, flag int, perm fs.FileMode) (File, error)
	Rename(oldpath, newpath string) error
	Remove(path string) error
}

// OS is the production FS: plain os calls against the real
// filesystem.
type OS struct{}

// MkdirAll implements FS.
func (OS) MkdirAll(path string, perm fs.FileMode) error { return os.MkdirAll(path, perm) }

// ReadFile implements FS.
func (OS) ReadFile(path string) ([]byte, error) { return os.ReadFile(path) }

// OpenFile implements FS.
func (OS) OpenFile(path string, flag int, perm fs.FileMode) (File, error) {
	return os.OpenFile(path, flag, perm)
}

// Rename implements FS.
func (OS) Rename(oldpath, newpath string) error { return os.Rename(oldpath, newpath) }

// Remove implements FS.
func (OS) Remove(path string) error { return os.Remove(path) }

// WriteFileAtomic replaces path with data crash-atomically: the bytes
// are written to a temporary sibling, fsynced, renamed over path, and
// the parent directory is fsynced (best effort — some filesystems
// refuse directory fsync) so the rename itself is durable. After a
// crash, readers see either the old content or the new, never a
// mixture or a half-written file.
func WriteFileAtomic(fsys FS, path string, data []byte, perm fs.FileMode) error {
	tmp := path + ".tmp"
	f, err := fsys.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, perm)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if err := fsys.Rename(tmp, path); err != nil {
		fsys.Remove(tmp)
		return err
	}
	if _, ok := fsys.(OS); ok {
		syncDir(filepath.Dir(path))
	}
	return nil
}

// syncDir fsyncs a directory so a just-completed rename survives a
// crash. Errors are ignored: directory fsync is unsupported on some
// filesystems, and the rename itself already happened.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	d.Sync()
	d.Close()
}
