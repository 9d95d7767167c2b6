package engine

import (
	"bytes"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"github.com/onioncurve/onion/internal/baseline"
	"github.com/onioncurve/onion/internal/curve"
)

// TestDirWithoutIdentityIsAdopted: a directory with no CURVE file — one
// written before the file existed — opens, keeps its data and is stamped
// with the opening curve's identity, which every later open checks. The
// stamp is whatever curve opens it first: that is why such a directory
// must be reopened with its own curve first.
func TestDirWithoutIdentityIsAdopted(t *testing.T) {
	o := fwCurve(t)
	ops := fwWorkload()
	dir := t.TempDir()
	e := applyFlushing(t, dir, ops, 0, 35, nil)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	stamp := filepath.Join(dir, identityFile)
	if err := os.Remove(stamp); err != nil {
		t.Fatal(err)
	}
	if got, want := fwRecover(t, dir), fwStateAfter(o, ops, 35); !maps.Equal(got, want) {
		t.Fatalf("adopted directory holds %d records, want %d", len(got), len(want))
	}
	if got, err := os.ReadFile(stamp); err != nil || !bytes.Equal(got, curve.IdentityOf(o).Record()) {
		t.Fatalf("stamp after adoption: %q, %v", got, err)
	}
	h, err := baseline.NewHilbert(2, fwSide)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, h, snapOpts(nil)); !errors.Is(err, curve.ErrMismatch) {
		t.Fatalf("adopted directory under another curve: %v, want ErrMismatch", err)
	}
}
