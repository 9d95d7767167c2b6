package engine

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"github.com/onioncurve/onion/internal/vfs"
)

// opRecorder is a vfs.FS that records, in order, every operation it
// passes on while on, as the pair a vfs.Injecting decides a fault by: the
// operation and its path (a rename's new name, a file operation's file).
// Placed under an Injecting in a fault matrix's enumeration pass, where
// no fault fires, it sees exactly the operations the Injecting counts.
type opRecorder struct {
	vfs.FS
	mu  sync.Mutex
	on  bool
	ops []recordedOp
}

type recordedOp struct {
	op   vfs.Op
	path string
}

func newOpRecorder() *opRecorder { return &opRecorder{FS: vfs.OS{}, on: true} }

func (r *opRecorder) record(op vfs.Op, path string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.on {
		r.ops = append(r.ops, recordedOp{op, path})
	}
}

func (r *opRecorder) setOn(on bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.on = on
}

func (r *opRecorder) Open(name string) (vfs.File, error) {
	r.record(vfs.OpOpen, name)
	f, err := r.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return recordedFile{f, r, name}, nil
}

func (r *opRecorder) Create(name string) (vfs.File, error) {
	r.record(vfs.OpCreate, name)
	f, err := r.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return recordedFile{f, r, name}, nil
}

func (r *opRecorder) Rename(oldname, newname string) error {
	r.record(vfs.OpRename, newname)
	return r.FS.Rename(oldname, newname)
}

func (r *opRecorder) Remove(name string) error {
	r.record(vfs.OpRemove, name)
	return r.FS.Remove(name)
}

func (r *opRecorder) ReadDir(name string) ([]os.DirEntry, error) {
	r.record(vfs.OpReadDir, name)
	return r.FS.ReadDir(name)
}

func (r *opRecorder) MkdirAll(name string, perm os.FileMode) error {
	r.record(vfs.OpMkdir, name)
	return r.FS.MkdirAll(name, perm)
}

func (r *opRecorder) SyncDir(name string) error {
	r.record(vfs.OpSyncDir, name)
	return r.FS.SyncDir(name)
}

type recordedFile struct {
	vfs.File
	r    *opRecorder
	path string
}

func (f recordedFile) Write(p []byte) (int, error) {
	f.r.record(vfs.OpWrite, f.path)
	return f.File.Write(p)
}

func (f recordedFile) Sync() error {
	f.r.record(vfs.OpSync, f.path)
	return f.File.Sync()
}

func (f recordedFile) ReadAt(p []byte, off int64) (int, error) {
	f.r.record(vfs.OpRead, f.path)
	return f.File.ReadAt(p, off)
}

// digits strips the generation numbers, epochs and temp-dir ordinals out
// of a file name, leaving its role.
var digits = regexp.MustCompile(`[-_]?\d+`)

// names returns, for every recorded operation the fault filter f matches
// (by vfs.Injecting's rule), in order, a name for it that does not depend
// on how many operations other files took: the file's role (its base name
// without numbers, "dir" when nothing is left), the file's ordinal among
// the files of that role, the operation, and its ordinal among that
// file's operations of the kind. The fourth write to the second WAL is
// "wal.log2-write4" however many pages a segment build wrote before it.
// It fails t unless exactly want operations match.
func (r *opRecorder) names(t *testing.T, f vfs.Fault, want int64) []string {
	t.Helper()
	fileOrd := map[string]int{}   // path → ordinal within its role
	roleFiles := map[string]int{} // role → files seen
	opOrd := map[recordedOp]int{}
	var out []string
	for _, o := range r.ops {
		role := digits.ReplaceAllString(filepath.Base(o.path), "")
		if role == "" {
			role = "dir"
		}
		if fileOrd[o.path] == 0 {
			roleFiles[role]++
			fileOrd[o.path] = roleFiles[role]
		}
		opOrd[o]++
		if (f.Op == vfs.OpAny || f.Op == o.op) && strings.Contains(o.path, f.Path) {
			out = append(out, fmt.Sprintf("%s%d-%s%d", role, fileOrd[o.path], o.op, opOrd[o]))
		}
	}
	if int64(len(out)) != want {
		t.Fatalf("recorded %d operations matching %+v, the injecting filesystem counted %d", len(out), f, want)
	}
	return out
}

// runFaultCase runs body for one fault point of a matrix under two nested
// names: outside, the point's index among its filter's matches, which a
// case has always been named by; inside, the operation's name from
// opRecorder.names, which stays put when another file's operation count
// changes.
func runFaultCase(t *testing.T, indexName, opName string, body func(t *testing.T)) {
	t.Run(indexName, func(t *testing.T) { t.Run(opName, body) })
}

// caseDir returns a new empty directory under root for one fault case.
// t.TempDir would name it after the case, whose name spells the fault
// filter's path, and then every operation in it would match the filter.
// root must not spell one either: the enclosing test's TempDir serves.
func caseDir(t *testing.T, root string) string {
	t.Helper()
	dir, err := os.MkdirTemp(root, "case")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.RemoveAll(dir) })
	return dir
}
