package engine

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/vfs"
)

// corruptFile flips one byte in the middle of the file — deep inside the
// page data region for any non-trivial segment.
func corruptFile(t *testing.T, path string) {
	t.Helper()
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	off := fi.Size() / 2
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

// twoRowEngine builds an engine with two disjoint flushed segments (rows
// y=0 and y=1, 60 points each, payload row*1000+x) on the given
// filesystem and returns it with the first segment's file path.
func twoRowEngine(t *testing.T, dir string, opts Options) (*Engine, curve.Curve, string) {
	t.Helper()
	o := fwCurve(t)
	e, err := Open(dir, o, opts)
	if err != nil {
		t.Fatal(err)
	}
	for row := uint32(0); row < 2; row++ {
		for x := uint32(0); x < 60; x++ {
			if err := e.Put(geom.Point{x, row}, uint64(row*1000+x)); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.segs) != 2 {
		t.Fatalf("fixture has %d segments, want 2", len(e.segs))
	}
	return e, o, e.segs[0].path
}

// checkBothRows asserts a full scan returns both complete rows with the
// fixture's payloads.
func checkBothRows(t *testing.T, e *Engine, o curve.Curve) {
	t.Helper()
	recs, _, err := e.Query(o.Universe().Rect())
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	if len(recs) != 120 {
		t.Fatalf("query returned %d records, want 120", len(recs))
	}
	for _, r := range recs {
		if want := uint64(r.Point[1]*1000 + r.Point[0]); r.Payload != want {
			t.Fatalf("record %v payload %d, want %d", r.Point, r.Payload, want)
		}
	}
}

// TestRepairFromSnapshot is the end-to-end repair acceptance path:
// corruption detected, segment quarantined, Repair salvages the clean
// pages, back-fills the damaged interval from a pre-corruption snapshot,
// Verify comes back clean and health returns to Healthy.
func TestRepairFromSnapshot(t *testing.T) {
	dir := t.TempDir()
	snapDir := filepath.Join(t.TempDir(), "snap")
	// The injector (no faults set) hides the hardlink capability, so the
	// snapshot byte-copies: corrupting the source later must not reach
	// into the backup.
	e, o, victim := twoRowEngine(t, dir, fwOpts(vfs.NewInjecting(vfs.OS{})))
	defer e.Close() //nolint:errcheck
	if _, err := e.Snapshot(snapDir); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, victim)

	vrep, err := e.Verify()
	if err != nil {
		t.Fatal(err)
	}
	if len(vrep.Quarantined) != 1 || !errors.Is(vrep.Quarantined[0].Cause, ErrCorrupt) {
		t.Fatalf("verify report %+v, want one corrupt quarantine", vrep)
	}
	if h, _ := e.Health(); h != Degraded {
		t.Fatalf("health after quarantine = %v, want Degraded", h)
	}

	rep, err := e.Repair(snapDir)
	if err != nil {
		t.Fatalf("repair: %v (report %+v)", err, rep)
	}
	if rep.Attempted != 1 || rep.Repaired != 1 || len(rep.Unrepaired) != 0 {
		t.Fatalf("repair report %+v, want 1/1 repaired", rep)
	}
	if rep.Salvaged+rep.Backfilled != 60 || rep.Backfilled == 0 {
		t.Fatalf("repair recovered %d salvaged + %d backfilled records, want 60 total with a non-empty backfill",
			rep.Salvaged, rep.Backfilled)
	}
	if rep.Health != Healthy {
		t.Fatalf("health after repair = %v, want Healthy", rep.Health)
	}
	if h, cause := e.Health(); h != Healthy || cause != nil {
		t.Fatalf("Health() after repair = %v (cause %v), want Healthy", h, cause)
	}
	vrep, err = e.Verify()
	if err != nil || len(vrep.Quarantined) != 0 {
		t.Fatalf("verify after repair: %+v, err %v", vrep, err)
	}
	checkBothRows(t, e, o)

	// The repaired state is durable: a reopen serves both rows.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(dir, o, Options{PageBytes: 192, FlushEntries: -1, compactFanout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	checkBothRows(t, e2, o)
	if h, _ := e2.Health(); h != Healthy {
		t.Fatalf("reopened health = %v, want Healthy", h)
	}
}

// TestRepairWithoutSnapshot: pure salvage cannot heal damaged intervals,
// so the file stays quarantined and the engine stays Degraded — then a
// real snapshot finishes the job.
func TestRepairWithoutSnapshot(t *testing.T) {
	dir := t.TempDir()
	snapDir := filepath.Join(t.TempDir(), "snap")
	e, o, victim := twoRowEngine(t, dir, fwOpts(vfs.NewInjecting(vfs.OS{})))
	defer e.Close() //nolint:errcheck
	if _, err := e.Snapshot(snapDir); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, victim)
	if _, err := e.Verify(); err != nil {
		t.Fatal(err)
	}

	rep, err := e.Repair("")
	if err != nil {
		t.Fatalf("salvage-only repair returned a hard error: %v", err)
	}
	if rep.Attempted != 1 || rep.Repaired != 0 || len(rep.Unrepaired) != 1 {
		t.Fatalf("salvage-only report %+v, want the file left quarantined", rep)
	}
	if rep.Health != Degraded {
		t.Fatalf("health after salvage-only repair = %v, want Degraded", rep.Health)
	}

	rep, err = e.Repair(snapDir)
	if err != nil || rep.Repaired != 1 || rep.Health != Healthy {
		t.Fatalf("repair with snapshot: %+v, err %v", rep, err)
	}
	checkBothRows(t, e, o)
}

// TestTryRecoverReadOnly: after the write path heals (the injected fault
// clears), TryRecover probes the disk, rotates out the poisoned WAL,
// flushes the stranded acked writes and lowers ReadOnly to Healthy.
func TestTryRecoverReadOnly(t *testing.T) {
	inj := vfs.NewInjecting(vfs.OS{})
	o := fwCurve(t)
	dir := t.TempDir()
	e, err := Open(dir, o, fwOpts(inj))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close() //nolint:errcheck
	for i := 0; i < 5; i++ {
		if err := e.Put(fwPoint(i), uint64(1000+i)); err != nil {
			t.Fatal(err)
		}
	}
	inj.SetFaults(vfs.Fault{Op: vfs.OpSync, Path: "wal-", N: 1})
	if err := e.Put(fwPoint(5), 5); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("faulted write = %v, want ErrReadOnly", err)
	}

	// While the disk is still broken, recovery must refuse to lower.
	inj.SetFaults(vfs.Fault{Op: vfs.OpSync, Path: "health-probe", N: 1, Repeat: true})
	if h, rerr := e.TryRecover(); h != ReadOnly || rerr == nil {
		t.Fatalf("recover on a broken disk = %v (err %v), want ReadOnly with the probe failure", h, rerr)
	}

	inj.SetFaults()
	h, rerr := e.TryRecover()
	if h != Healthy || rerr != nil {
		t.Fatalf("recover = %v (err %v), want Healthy", h, rerr)
	}
	if h, cause := e.Health(); h != Healthy || cause != nil {
		t.Fatalf("Health() after recover = %v (cause %v)", h, cause)
	}
	// The write path works again and nothing acked was lost.
	for i := 6; i < 9; i++ {
		if err := e.Put(fwPoint(i), uint64(1000+i)); err != nil {
			t.Fatalf("write after recovery: %v", err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	got := fwRecover(t, dir)
	for _, i := range []int{0, 1, 2, 3, 4, 6, 7, 8} {
		if got[o.Index(fwPoint(i))] != uint64(1000+i) {
			t.Fatalf("acked write %d missing after recovery (have %d records)", i, len(got))
		}
	}
}

// TestTryRecoverFailedIsTerminal: a containment failure (quarantine
// rename refused) lands in Failed, and no recovery attempt lowers it.
func TestTryRecoverFailedIsTerminal(t *testing.T) {
	inj := vfs.NewInjecting(vfs.OS{})
	e, _, victim := twoRowEngine(t, t.TempDir(), fwOpts(inj))
	defer e.Close() //nolint:errcheck
	corruptFile(t, victim)
	inj.SetFaults(vfs.Fault{Op: vfs.OpRename, Path: "quarantine", N: 1, Repeat: true})
	if _, err := e.Verify(); err != nil {
		t.Fatal(err)
	}
	if h, cause := e.Health(); h != Failed || cause == nil {
		t.Fatalf("health after failed quarantine = %v (cause %v), want Failed", h, cause)
	}
	inj.SetFaults()
	if h, rerr := e.TryRecover(); h != Failed || rerr == nil {
		t.Fatalf("recover from Failed = %v (err %v), want terminal Failed", h, rerr)
	}
}
