package vfs

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"syscall"
	"testing"
)

func writeAll(t *testing.T, f File, b []byte) {
	t.Helper()
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
}

func TestOSPassthrough(t *testing.T) {
	fs := OS{}
	dir := t.TempDir()
	sub := filepath.Join(dir, "a", "b")
	if err := fs.MkdirAll(sub, 0o755); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(sub, "f1")
	f, err := fs.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, []byte("hello world"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if err := fs.Rename(p, p+".new"); err != nil {
		t.Fatal(err)
	}
	if err := fs.SyncDir(sub); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFile(fs, p+".new")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "hello world" {
		t.Fatalf("got %q", got)
	}
	ents, err := fs.ReadDir(sub)
	if err != nil || len(ents) != 1 {
		t.Fatalf("readdir %v %v", ents, err)
	}
	if err := fs.Remove(p + ".new"); err != nil {
		t.Fatal(err)
	}
}

// TestRemoveAll: the tree goes, children first, every removal through
// the filesystem handed in — so an injected failure stops it part-way —
// and a directory that is not there is not an error.
func TestRemoveAll(t *testing.T) {
	inj := NewInjecting(OS{})
	root := filepath.Join(t.TempDir(), "root")
	if err := RemoveAll(inj, root); err != nil {
		t.Fatalf("missing directory: %v", err)
	}
	for _, name := range []string{"a/b/f1", "a/f2", "f3"} {
		p := filepath.Join(root, name)
		if err := inj.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := WriteFileAtomic(inj, p, []byte(name)); err != nil {
			t.Fatal(err)
		}
	}
	inj.SetFaults(Fault{Op: OpRemove, N: 3, Kind: KindFail})
	if err := RemoveAll(inj, root); !errors.Is(err, ErrInjected) {
		t.Fatalf("third removal failed, RemoveAll returned %v", err)
	}
	if _, err := os.Stat(root); err != nil {
		t.Fatalf("root after a failed RemoveAll: %v", err)
	}
	inj.SetFaults()
	if err := RemoveAll(inj, root); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(root); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("root after RemoveAll: %v", err)
	}
}

func TestInjectingNthOpAndCategories(t *testing.T) {
	dir := t.TempDir()
	fs := NewInjecting(OS{})
	// Count-only rule: N = 0 never fires.
	fs.SetFaults(Fault{Op: OpWrite})
	f, err := fs.Create(filepath.Join(dir, "x"))
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < 5; k++ {
		writeAll(t, f, []byte("abcd"))
	}
	if got := fs.Matched(0); got != 5 {
		t.Fatalf("matched %d, want 5", got)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	// Fail exactly the 3rd write.
	fs = NewInjecting(OS{})
	fs.SetFaults(Fault{Op: OpWrite, N: 3, Kind: KindFail})
	f, err = fs.Create(filepath.Join(dir, "y"))
	if err != nil {
		t.Fatal(err)
	}
	var failures int
	for k := 0; k < 5; k++ {
		if _, err := f.Write([]byte("abcd")); err != nil {
			if !errors.Is(err, ErrInjected) {
				t.Fatalf("want ErrInjected, got %v", err)
			}
			failures++
		}
	}
	if failures != 1 {
		t.Fatalf("failures %d, want 1", failures)
	}
	if inj := fs.Injected(); inj[KindFail] != 1 {
		t.Fatalf("injected %v", inj)
	}
	f.Close()
}

func TestInjectingENOSPC(t *testing.T) {
	fs := NewInjecting(OS{})
	fs.SetFaults(Fault{Op: OpSync, N: 1, Kind: KindNoSpace})
	f, err := fs.Create(filepath.Join(t.TempDir(), "x"))
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, []byte("abcd"))
	err = f.Sync()
	if !errors.Is(err, ErrInjected) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("want ErrInjected+ENOSPC, got %v", err)
	}
	f.Close()
}

func TestInjectingShortWrite(t *testing.T) {
	p := filepath.Join(t.TempDir(), "x")
	fs := NewInjecting(OS{})
	fs.SetFaults(Fault{Op: OpWrite, N: 2, Kind: KindShortWrite})
	f, err := fs.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, []byte("AAAA"))
	n, err := f.Write([]byte("BBBB"))
	if !errors.Is(err, ErrInjected) || n != 2 {
		t.Fatalf("short write n=%d err=%v", n, err)
	}
	f.Close()
	got, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "AAAABB" {
		t.Fatalf("file %q, want torn AAAABB", got)
	}
}

func TestInjectingSyncLoss(t *testing.T) {
	p := filepath.Join(t.TempDir(), "x")
	fs := NewInjecting(OS{})
	fs.SetFaults(Fault{Op: OpSync, N: 2, Kind: KindSyncLoss})
	f, err := fs.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, []byte("durable."))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, []byte("lost!"))
	if err := f.Sync(); !errors.Is(err, ErrInjected) {
		t.Fatalf("want injected sync failure, got %v", err)
	}
	f.Close()
	got, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	// fsyncgate: everything after the last successful fsync is gone.
	if string(got) != "durable." {
		t.Fatalf("file %q, want only the synced prefix", got)
	}
}

func TestInjectingCorruptRead(t *testing.T) {
	p := filepath.Join(t.TempDir(), "x")
	want := bytes.Repeat([]byte{0x11}, 256)
	if err := os.WriteFile(p, want, 0o644); err != nil {
		t.Fatal(err)
	}
	fs := NewInjecting(OS{})
	fs.SetFaults(Fault{Op: OpRead, N: 1, Kind: KindCorrupt})
	f, err := fs.Open(p)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got := make([]byte, 256)
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatalf("corrupt read must not error: %v", err)
	}
	if bytes.Equal(got, want) {
		t.Fatal("read was not corrupted")
	}
	// The next read is clean.
	if _, err := f.ReadAt(got, 0); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("second read should be clean")
	}
}

func TestInjectingCrash(t *testing.T) {
	dir := t.TempDir()
	p := filepath.Join(dir, "x")
	fs := NewInjecting(OS{})
	fs.SetFaults(Fault{Op: OpWrite, N: 3, Kind: KindCrash})
	f, err := fs.Create(p)
	if err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, []byte("synced|"))
	if err := f.Sync(); err != nil {
		t.Fatal(err)
	}
	writeAll(t, f, []byte("unsynced|"))
	if _, err := f.Write([]byte("crashing")); !errors.Is(err, ErrCrashed) && !errors.Is(err, ErrInjected) {
		t.Fatalf("want crash, got %v", err)
	}
	if !fs.Crashed() {
		t.Fatal("crash latch not set")
	}
	// Every later operation fails.
	if _, err := fs.Create(filepath.Join(dir, "y")); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash create: %v", err)
	}
	if err := f.Sync(); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash sync: %v", err)
	}
	// Close still releases the descriptor.
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	// Only the synced prefix survived.
	got, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != "synced|" {
		t.Fatalf("file %q, want only the synced prefix", got)
	}
}

func TestInjectingPathFilterAndRepeat(t *testing.T) {
	dir := t.TempDir()
	fs := NewInjecting(OS{})
	fs.SetFaults(Fault{Op: OpWrite, Path: "wal-", N: 2, Repeat: true, Kind: KindFail})
	w, err := fs.Create(filepath.Join(dir, "wal-000.log"))
	if err != nil {
		t.Fatal(err)
	}
	o, err := fs.Create(filepath.Join(dir, "seg-000.pst"))
	if err != nil {
		t.Fatal(err)
	}
	var failures int
	for k := 0; k < 6; k++ {
		if _, err := w.Write([]byte("x")); err != nil {
			failures++
		}
		// Non-matching path never fails.
		if _, err := o.Write([]byte("x")); err != nil {
			t.Fatalf("segment write failed: %v", err)
		}
	}
	if failures != 3 { // writes 2, 4, 6
		t.Fatalf("failures %d, want 3", failures)
	}
	w.Close()
	o.Close()
}
