// Package vfs is the storage stack's seam to the filesystem: a small
// interface over the handful of operations the engine, the paged store,
// the shard manifest and the replication log and state actually perform,
// with a passthrough OS
// implementation for production and an Injecting implementation that
// turns every operation into a deterministic fault point — fail the Nth
// operation, run out of space, tear a write short, lose unsynced bytes
// on a failed fsync (fsyncgate semantics), flip bits on the read path,
// or crash the process's view of the disk outright.
//
// The interface is deliberately narrow. Everything above it is
// append-or-replace: files are written sequentially and fsynced, then
// read with positioned reads; directories change by create, atomic
// rename and remove, made durable with a directory fsync. Those are the
// only primitives a crash-consistent store needs, and the only ones a
// fault matrix needs to enumerate.
package vfs

import (
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
)

// File is an open file. Writers append sequentially with Write and make
// the data durable with Sync; readers use positioned ReadAt calls (no
// shared offset, safe for concurrent use). Truncate exists for the
// fault injector's unsynced-data loss model; production code never
// calls it.
type File interface {
	io.ReaderAt
	io.Writer
	Sync() error
	Truncate(size int64) error
	Stat() (os.FileInfo, error)
	Close() error
}

// FS is the filesystem surface of the storage stack.
type FS interface {
	// Open opens an existing file for reading.
	Open(name string) (File, error)
	// Create creates (or truncates) a file for writing.
	Create(name string) (File, error)
	// Rename atomically replaces newname with oldname.
	Rename(oldname, newname string) error
	// Remove deletes a file.
	Remove(name string) error
	// ReadDir lists a directory.
	ReadDir(name string) ([]os.DirEntry, error)
	// MkdirAll creates a directory and any missing parents.
	MkdirAll(name string, perm os.FileMode) error
	// SyncDir fsyncs a directory, making its entry updates (renames,
	// removes, creates) durable.
	SyncDir(name string) error
}

// Linker is the optional hardlink capability of an FS. Snapshot export
// links segments into the snapshot directory when the filesystem offers
// it (same-device, copy-free) and falls back to a byte copy when it
// doesn't. The fault injector deliberately does not implement Linker, so
// fault-matrix tests always exercise the fully injectable copy path.
type Linker interface {
	// Link creates newname as a hard link to oldname.
	Link(oldname, newname string) error
}

// OS is the passthrough production filesystem.
type OS struct{}

func (OS) Open(name string) (File, error) { return os.Open(name) }
func (OS) Create(name string) (File, error) {
	return os.OpenFile(name, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
}
func (OS) Rename(oldname, newname string) error       { return os.Rename(oldname, newname) }
func (OS) Link(oldname, newname string) error         { return os.Link(oldname, newname) }
func (OS) Remove(name string) error                   { return os.Remove(name) }
func (OS) ReadDir(name string) ([]os.DirEntry, error) { return os.ReadDir(name) }
func (OS) MkdirAll(name string, perm os.FileMode) error {
	return os.MkdirAll(name, perm)
}
func (OS) SyncDir(name string) error {
	d, err := os.Open(name)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// ReadFile reads the whole file at name through fs.
func ReadFile(fs FS, name string) ([]byte, error) {
	return ReadAtMost(fs, name, math.MaxInt64)
}

// ReadAtMost reads the first limit bytes of the file at name, or all of
// it when it is shorter. A caller that bounds a file's size passes one
// byte more than the bound and sees an oversized file as one, having read
// no more of it.
func ReadAtMost(fs FS, name string, limit int64) ([]byte, error) {
	f, err := fs.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	fi, err := f.Stat()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, min(fi.Size(), limit))
	if _, err := f.ReadAt(buf, 0); err != nil && err != io.EOF {
		return nil, err
	}
	return buf, nil
}

// WriteFileAtomic publishes data as the file at path with the store's
// replace discipline — write path.tmp, fsync it, rename it over path,
// fsync the directory — so after a crash at any point path holds either
// its previous content (or is absent) or all of data, never a prefix.
func WriteFileAtomic(fs FS, path string, data []byte) error {
	tmp := path + ".tmp"
	f, err := fs.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = fs.Rename(tmp, path)
	}
	if err != nil {
		fs.Remove(tmp) //nolint:errcheck // debris of a failed publish; the cause is what matters
		return err
	}
	return fs.SyncDir(filepath.Dir(path))
}

// CheckOrCreate verifies the small record file at path, or publishes data
// there when there is none. An existing file is handed to check, which
// decides whether it agrees with data; only its first limit bytes are
// read, so a caller that bounds its record's size passes one byte more
// than the bound and check sees an oversized file as one. A missing file
// is written with WriteFileAtomic, so a crash leaves no record or the
// whole one, never a prefix that would fail a later check.
func CheckOrCreate(fs FS, path string, data []byte, limit int64, check func(existing []byte) error) error {
	existing, err := ReadAtMost(fs, path, limit)
	if errors.Is(err, os.ErrNotExist) {
		return WriteFileAtomic(fs, path, data)
	}
	if err != nil {
		return err
	}
	return check(existing)
}

// RemoveAll removes dir and everything under it through fs, one Remove
// per entry, children before their directory. A dir that does not exist
// is not an error. It stops at the first failure, leaving the tree
// partly removed.
func RemoveAll(fs FS, dir string) error {
	ents, err := fs.ReadDir(dir)
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil
		}
		return err
	}
	for _, ent := range ents {
		name := filepath.Join(dir, ent.Name())
		if ent.IsDir() {
			err = RemoveAll(fs, name)
		} else {
			err = fs.Remove(name)
		}
		if err != nil {
			return err
		}
	}
	return fs.Remove(dir)
}

// Or returns fs, or the passthrough OS filesystem when fs is nil — the
// idiom option structs use to make the zero value production-ready.
func Or(fs FS) FS {
	if fs == nil {
		return OS{}
	}
	return fs
}
