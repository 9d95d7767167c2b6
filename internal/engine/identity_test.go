package engine

import (
	"encoding/hex"
	"errors"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/vfs"
)

// treeFiles returns the content of every file under dir, keyed by its
// path relative to dir.
func treeFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		files[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// TestDirWithoutIdentityIsRefused: a directory with data but no CURVE
// file — one written before the file existed — records no curve for its
// keys, so Open refuses it (curve.ErrBadIdentity) under any curve, its
// own included, and writes nothing: no CURVE stamp, no replay, no
// deletion. Each kind of data counts: a segment, a WAL, an archived WAL.
// A directory with none of them is new and is stamped, even if it holds
// an empty archive/ (which makes a new engine archive from its first WAL)
// or files the engine does not own (a follower's REPL_LOG).
func TestDirWithoutIdentityIsRefused(t *testing.T) {
	o := fwCurve(t)
	ops := fwWorkload()
	written := t.TempDir()
	e := applyFlushing(t, written, ops, 0, 35, nil)
	if _, err := e.Snapshot(filepath.Join(t.TempDir(), "snap")); err != nil {
		t.Fatal(err)
	}
	e = applyFlushing(t, written, ops, 35, 45, e)
	crash(e) // leaves segments, a live WAL and archive/
	if err := os.Remove(filepath.Join(written, identityFile)); err != nil {
		t.Fatal(err)
	}
	kinds := map[string]func(name string) bool{
		"everything": func(string) bool { return true },
		"a segment":  func(n string) bool { return filepath.Ext(n) == ".pst" },
		"a WAL":      func(n string) bool { return filepath.Ext(n) == ".log" && filepath.Dir(n) == "." },
		"archive/":   func(n string) bool { return filepath.Dir(n) == archiveDirName },
	}
	for kind, keep := range kinds {
		dir := t.TempDir()
		for name, data := range treeFiles(t, written) {
			if !keep(name) {
				continue
			}
			if err := os.MkdirAll(filepath.Dir(filepath.Join(dir, name)), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), []byte(data), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		before := treeFiles(t, dir)
		if len(before) == 0 {
			t.Fatalf("%s: the fixture holds no such file", kind)
		}
		if _, err := Open(dir, o, snapOpts(nil)); !errors.Is(err, curve.ErrBadIdentity) {
			t.Fatalf("%s without CURVE: %v, want ErrBadIdentity", kind, err)
		}
		if after := treeFiles(t, dir); !maps.Equal(after, before) {
			t.Fatalf("%s: the refused open changed the directory: %d files before, %d after", kind, len(before), len(after))
		}
	}

	fresh := t.TempDir()
	if err := os.Mkdir(archiveDir(fresh), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(fresh, "REPL_LOG"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	e, err := Open(fresh, o, snapOpts(nil))
	if err != nil {
		t.Fatalf("a directory holding an empty archive/ and a REPL_LOG: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if got, err := os.ReadFile(filepath.Join(fresh, identityFile)); err != nil || string(got) != string(curve.IdentityOf(o).Record()) {
		t.Fatalf("stamp of a new directory: %q, %v", got, err)
	}
}

// TestRetiredWALIsRefused: a WAL frame whose CRC holds but whose ops are
// in the retired coordinate encoding fails Open, and an archived one
// fails Restore, with ErrWAL wrapping ErrRetiredOp. Neither is read as a
// torn tail: the log is not truncated, replayed in part or deleted, and
// no file of the directory, the snapshot or the archive changes.
func TestRetiredWALIsRefused(t *testing.T) {
	o := fwCurve(t)
	ops := fwWorkload()
	old, err := hex.DecodeString(retiredWAL)
	if err != nil {
		t.Fatal(err)
	}
	refused := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrWAL) || !errors.Is(err, ErrRetiredOp) {
			t.Fatalf("%s: %v, want ErrWAL wrapping ErrRetiredOp", what, err)
		}
	}

	dir := t.TempDir()
	snap := filepath.Join(t.TempDir(), "snap")
	e := applyFlushing(t, dir, ops, 0, 20, nil)
	if _, err := e.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	e = applyFlushing(t, dir, ops, 20, 40, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// A log no segment covers, left by the crash of an older release.
	if err := os.WriteFile(walPath(dir, 999), old, 0o644); err != nil {
		t.Fatal(err)
	}
	before := treeFiles(t, dir)
	_, err = Open(dir, o, snapOpts(nil))
	refused("Open", err)
	if after := treeFiles(t, dir); !maps.Equal(after, before) {
		t.Fatal("the refused open changed the directory")
	}

	if err := os.Remove(walPath(dir, 999)); err != nil {
		t.Fatal(err)
	}
	gens, err := archivedWALs(vfs.OS{}, archiveDir(dir))
	if err != nil || len(gens) == 0 {
		t.Fatalf("archived WALs %v, %v", gens, err)
	}
	last := walPath(archiveDir(dir), gens[len(gens)-1])
	f, err := os.OpenFile(last, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(old); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	before, snapBefore := treeFiles(t, dir), treeFiles(t, snap)
	target := filepath.Join(t.TempDir(), "restored")
	_, err = Restore(snap, target, -1, o, snapOpts(nil))
	refused("Restore", err)
	if _, err := os.Stat(target); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("target after a refused restore: %v, want absent", err)
	}
	if !maps.Equal(treeFiles(t, dir), before) || !maps.Equal(treeFiles(t, snap), snapBefore) {
		t.Fatal("the refused restore changed the source or the snapshot")
	}
}
