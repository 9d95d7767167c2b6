package engine

import (
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/vfs"
)

// These matrices extend TestFaultMatrix's contract to the recovery
// subsystem: every file operation a snapshot export, a WAL archive move,
// a point-in-time restore or a quarantine repair performs is enumerated
// with count-only rules, then failed and crashed at every point, one at a
// time. The invariants: the SOURCE engine always reopens clean with an
// acked-consistent prefix, a committed snapshot (manifest present) is
// always restorable, a restore target is absent-or-complete, and an
// interrupted repair converges on retry.

// rwPrefix relaxes fwCheck: the recovered state must equal fwStateAfter
// for SOME prefix j — used where the floor is not the acked count (a
// restore reaches only archived history, a snapshot only its flush
// point).
func rwPrefix(t *testing.T, c curve.Curve, ops []fwOp, got map[uint64]uint64, what string) {
	t.Helper()
	for j := 0; j <= len(ops); j++ {
		if maps.Equal(got, fwStateAfter(c, ops, j)) {
			return
		}
	}
	t.Fatalf("%s matches no workload prefix: %d records", what, len(got))
}

// rwRun drives the fixed workload with two snapshot exports in the
// middle (a full one, then an incremental against it) so the matrix
// covers snapshot and archive operations. Export errors are tolerated —
// the injected fault must not damage the engine — but write acks must
// still form a prefix.
func rwRun(t *testing.T, dir, snap1, snap2 string, fsys vfs.FS, ops []fwOp) int {
	t.Helper()
	e, err := Open(dir, fwCurve(t), fwOpts(fsys))
	if err != nil {
		return 0
	}
	acked, failed := 0, false
	for i, op := range ops {
		var werr error
		if op.del {
			werr = e.Delete(op.pt)
		} else {
			werr = e.Put(op.pt, op.pay)
		}
		if werr == nil {
			if failed {
				t.Fatalf("op %d acked after an earlier write failed", i)
			}
			acked++
		} else {
			failed = true
		}
		switch i + 1 {
		case 25, 75:
			e.Flush() //nolint:errcheck // fault runs flush into injected errors
		case 45:
			e.Snapshot(snap1) //nolint:errcheck // export may fail; engine must survive
		case 90:
			e.SnapshotSince(snap2, snap1) //nolint:errcheck
		}
	}
	e.Close() //nolint:errcheck // a crashed filesystem cannot close cleanly
	return acked
}

// rwCheckSnapshot asserts absent-or-complete: either the snapshot never
// committed (no manifest — any other debris is fine), or it restores on
// the real filesystem to a consistent workload prefix.
func rwCheckSnapshot(t *testing.T, snapDir string, o curve.Curve, ops []fwOp) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(snapDir, snapshotManifestName)); err != nil {
		if !errors.Is(err, fs.ErrNotExist) {
			t.Fatal(err)
		}
		return // not committed: correctly absent
	}
	target := filepath.Join(t.TempDir(), "restored")
	if _, err := Restore(snapDir, target, -1, fwCurve(t), snapOpts(nil)); err != nil {
		t.Fatalf("committed snapshot %s does not restore: %v", snapDir, err)
	}
	rwPrefix(t, o, ops, fwRecover(t, target), "restored snapshot state")
}

func TestSnapshotFaultMatrix(t *testing.T) {
	ops := fwWorkload()
	o := fwCurve(t)

	// The recovery fault-point classes: everything under the snapshot
	// directories (segment copies, manifest tmp + rename), and everything
	// under archive/ (WAL retirement renames and fsyncs, archive listing).
	filters := []vfs.Fault{
		{Op: vfs.OpAny, Path: "snap"},
		{Op: vfs.OpAny, Path: "archive"},
	}

	inj := vfs.NewInjecting(vfs.OS{})
	inj.SetFaults(filters...)
	enumRoot := t.TempDir()
	enumDir := filepath.Join(enumRoot, "db")
	if acked := rwRun(t, enumDir, filepath.Join(enumRoot, "snap1"), filepath.Join(enumRoot, "snap2"), inj, ops); acked != len(ops) {
		t.Fatalf("enumeration run dropped writes: %d/%d acked", acked, len(ops))
	}
	fwCheck(t, o, ops, len(ops), fwRecover(t, enumDir))
	rwCheckSnapshot(t, filepath.Join(enumRoot, "snap1"), o, ops)
	rwCheckSnapshot(t, filepath.Join(enumRoot, "snap2"), o, ops)

	caseRoot := t.TempDir()
	for fi, f := range filters {
		total := inj.Matched(fi)
		if total == 0 {
			t.Fatalf("filter %+v matched no operations — the workload no longer exercises it", f)
		}
		for _, kind := range []vfs.Kind{vfs.KindFail, vfs.KindCrash} {
			for n := int64(1); n <= total; n++ {
				name := fmt.Sprintf("%s-%s-%s-n%d", f.Op, f.Path, kind, n)
				t.Run(name, func(t *testing.T) {
					root := caseDir(t, caseRoot)
					dir := filepath.Join(root, "db")
					snap1, snap2 := filepath.Join(root, "snap1"), filepath.Join(root, "snap2")
					ifs := vfs.NewInjecting(vfs.OS{})
					ifs.SetFaults(vfs.Fault{Op: f.Op, Path: f.Path, N: n, Kind: kind})
					acked := rwRun(t, dir, snap1, snap2, ifs, ops)
					if len(ifs.Injected()) == 0 {
						t.Fatalf("fault point %d of %d never fired", n, total)
					}
					// The source engine survives with its acked prefix...
					fwCheck(t, o, ops, acked, fwRecover(t, dir))
					// ...and each snapshot is atomically absent-or-complete.
					rwCheckSnapshot(t, snap1, o, ops)
					rwCheckSnapshot(t, snap2, o, ops)
				})
			}
		}
	}
}

// TestFirstSnapshotFaultMatrix fails and crashes every file operation
// from a flush before an engine's first snapshot, which deletes the WAL
// it retires, to the end of that snapshot, which starts the WAL archive.
// Then it heals the filesystem (a crash stays latched), keeps writing
// with a flush in between, and closes. After a reopen, the source holds
// its acked prefix, and a committed SNAPSHOT manifest implies that
// archive/ exists and restores to latest with every write acked after
// it.
//
// vfs.Injecting applies MkdirAll to the base filesystem at once, so no
// crash here can lose the archive directory: the SyncDir that makes it
// durable before the manifest commits is checked by reading, not by this
// matrix (ROADMAP.md's crash-model item would make it observable).
func TestFirstSnapshotFaultMatrix(t *testing.T) {
	ops := fwWorkload()
	o := fwCurve(t)
	const snapAt, flushAt = 40, 65
	rec := newOpRecorder() // records the enumeration run's fault window
	rec.setOn(false)

	// run drives ops through an injecting filesystem whose faults are
	// active from the flush at op 20 to the end of the first Snapshot,
	// and returns the acked count and how many operations that window
	// performed.
	run := func(t *testing.T, root string, fault vfs.Fault, base vfs.FS) (acked int, points int64) {
		t.Helper()
		inj := vfs.NewInjecting(base)
		e, err := Open(filepath.Join(root, "db"), o, snapOpts(inj))
		if err != nil {
			t.Fatal(err)
		}
		failed := false
		for i, op := range ops {
			switch i {
			case 20:
				inj.SetFaults(fault)
				rec.setOn(true)
				e.Flush() //nolint:errcheck // may fail; the WAL it retires is deleted
			case snapAt:
				e.Snapshot(filepath.Join(root, "snap")) //nolint:errcheck // may fail; the engine must survive
				points = inj.Matched(0)
				inj.SetFaults()
				rec.setOn(false)
			case flushAt:
				e.Flush() //nolint:errcheck // may fail after an injected fault
			}
			var werr error
			if op.del {
				werr = e.Delete(op.pt)
			} else {
				werr = e.Put(op.pt, op.pay)
			}
			if werr == nil {
				if failed {
					t.Fatalf("op %d acked after an earlier write failed", i)
				}
				acked++
			} else {
				failed = true
			}
		}
		e.Close() //nolint:errcheck // a crashed filesystem cannot close cleanly
		return acked, points
	}
	check := func(t *testing.T, root string, acked int) {
		t.Helper()
		fwCheck(t, o, ops, acked, fwRecover(t, filepath.Join(root, "db")))
		if _, err := os.Stat(filepath.Join(root, "snap", snapshotManifestName)); errors.Is(err, fs.ErrNotExist) {
			return // never committed
		} else if err != nil {
			t.Fatal(err)
		}
		if fi, err := os.Stat(archiveDir(filepath.Join(root, "db"))); err != nil || !fi.IsDir() {
			t.Fatalf("a snapshot committed without archive/ (stat err %v)", err)
		}
		target := filepath.Join(t.TempDir(), "restored")
		if _, err := Restore(filepath.Join(root, "snap"), target, -1, o, snapOpts(nil)); err != nil {
			t.Fatalf("committed snapshot does not restore: %v", err)
		}
		fwCheck(t, o, ops, acked, fwRecover(t, target))
	}

	enumRoot := t.TempDir()
	acked, total := run(t, enumRoot, vfs.Fault{Op: vfs.OpAny}, rec)
	if acked != len(ops) {
		t.Fatalf("enumeration run dropped writes: %d/%d acked", acked, len(ops))
	}
	check(t, enumRoot, acked)
	if total == 0 {
		t.Fatal("the fault window performed no injectable operations")
	}
	names := rec.names(t, vfs.Fault{Op: vfs.OpAny}, total)
	for _, kind := range []vfs.Kind{vfs.KindFail, vfs.KindCrash} {
		for n := int64(1); n <= total; n++ {
			runFaultCase(t, fmt.Sprintf("%s-n%d", kind, n), names[n-1], func(t *testing.T) {
				root := t.TempDir()
				acked, _ := run(t, root, vfs.Fault{Op: vfs.OpAny, N: n, Kind: kind}, vfs.OS{})
				check(t, root, acked)
			})
		}
	}
}

func TestRestoreFaultMatrix(t *testing.T) {
	ops := fwWorkload()
	o := fwCurve(t)

	// Fixture built once, fault-free: a source engine whose snapshot
	// needs archived-WAL replay to reach the final state.
	root := t.TempDir()
	srcDir := filepath.Join(root, "db")
	snapDir := filepath.Join(root, "snap")
	e, err := Open(srcDir, o, snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range ops {
		if op.del {
			err = e.Delete(op.pt)
		} else {
			err = e.Put(op.pt, op.pay)
		}
		if err != nil {
			t.Fatal(err)
		}
		switch i + 1 {
		case 25, 75:
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		case 50:
			if _, err := e.Snapshot(snapDir); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	want := fwStateAfter(o, ops, len(ops))

	// Enumeration: every operation a full restore performs is a fault
	// point (the restore touches nothing but its own staging tree and the
	// read-only snapshot chain + archive).
	rec := newOpRecorder()
	inj := vfs.NewInjecting(rec)
	inj.SetFaults(vfs.Fault{Op: vfs.OpAny})
	enumTarget := filepath.Join(t.TempDir(), "restored")
	if _, err := Restore(snapDir, enumTarget, -1, o, snapOpts(inj)); err != nil {
		t.Fatalf("enumeration restore: %v", err)
	}
	if !maps.Equal(fwRecover(t, enumTarget), want) {
		t.Fatal("enumeration restore diverges from the source state")
	}
	total := inj.Matched(0)
	if total == 0 {
		t.Fatal("restore performed no injectable operations")
	}
	names := rec.names(t, vfs.Fault{Op: vfs.OpAny}, total)

	for _, kind := range []vfs.Kind{vfs.KindFail, vfs.KindCrash} {
		for n := int64(1); n <= total; n++ {
			runFaultCase(t, fmt.Sprintf("%s-n%d", kind, n), names[n-1], func(t *testing.T) {
				target := filepath.Join(t.TempDir(), "restored")
				ifs := vfs.NewInjecting(vfs.OS{})
				ifs.SetFaults(vfs.Fault{Op: vfs.OpAny, N: n, Kind: kind})
				if _, err := Restore(snapDir, target, -1, o, snapOpts(ifs)); err == nil {
					t.Fatalf("restore with fault point %d of %d succeeded", n, total)
				}
				// Absent-or-complete. A fault after the rename into place
				// leaves a complete target whose durability failed; a retry
				// is then refused, since the target exists.
				if _, err := os.Stat(target); err == nil {
					if !maps.Equal(fwRecover(t, target), want) {
						t.Fatal("failed restore left an incomplete target behind")
					}
					if _, err := Restore(snapDir, target, -1, o, snapOpts(nil)); err == nil || !strings.Contains(err.Error(), "already exists") {
						t.Fatalf("retry over a complete target = %v, want already exists", err)
					}
					return
				} else if !errors.Is(err, fs.ErrNotExist) {
					t.Fatal(err)
				}
				// A retry on the healed filesystem clears the staging debris
				// and completes.
				if _, err := Restore(snapDir, target, -1, o, snapOpts(nil)); err != nil {
					t.Fatalf("retry after fault: %v", err)
				}
				if !maps.Equal(fwRecover(t, target), want) {
					t.Fatal("retried restore diverges from the source state")
				}
			})
		}
	}

	// The read-only inputs took no damage from any of that.
	if !maps.Equal(fwRecover(t, srcDir), want) {
		t.Fatal("source engine changed during restore faults")
	}
}

func TestRepairFaultMatrix(t *testing.T) {
	o := fwCurve(t)

	// buildFixture creates, deterministically: an engine with two row
	// segments, a byte-copied snapshot, a corrupt first segment already
	// moved to quarantine, closed cleanly.
	buildFixture := func(t *testing.T, root string) (dir, snapDir string) {
		t.Helper()
		dir = filepath.Join(root, "db")
		snapDir = filepath.Join(root, "snap")
		e, _, victim := twoRowEngine(t, dir, fwOpts(vfs.NewInjecting(vfs.OS{})))
		if _, err := e.Snapshot(snapDir); err != nil {
			t.Fatal(err)
		}
		corruptFile(t, victim)
		if rep, err := e.Verify(); err != nil || len(rep.Quarantined) != 1 {
			t.Fatalf("fixture verify: %+v, err %v", rep, err)
		}
		e.Close() //nolint:errcheck // Degraded close still flushes
		return dir, snapDir
	}

	// checkConsistent asserts the invariant every fault point must leave:
	// the engine reopens, and serves either just the intact row (repair
	// incomplete) or both full rows (repair committed) — never a torn
	// in-between, never corrupt reads.
	checkConsistent := func(t *testing.T, dir string) {
		t.Helper()
		e, err := Open(dir, o, Options{PageBytes: 192, FlushEntries: -1, compactFanout: -1})
		if err != nil {
			t.Fatalf("reopen after repair fault: %v", err)
		}
		defer e.Close()
		recs, _, err := e.Query(o.Universe().Rect())
		if err != nil {
			t.Fatalf("query after repair fault: %v", err)
		}
		rows := rowRecords(recs)
		if rows[1] != 60 || (rows[0] != 0 && rows[0] != 60) {
			t.Fatalf("rows after repair fault %v, want {1:60} or {0:60, 1:60}", rows)
		}
	}

	// repairOnce opens the quarantined fixture through fsys and runs one
	// Repair pass; all errors are tolerated (that's the point).
	repairOnce := func(dir, snapDir string, fsys vfs.FS) {
		e, err := Open(dir, o, fwOpts(fsys))
		if err != nil {
			return
		}
		e.Repair(snapDir) //nolint:errcheck
		e.Close()         //nolint:errcheck
	}

	// The repair-specific fault-point classes: quarantine scans and
	// retirement, snapshot chain reads, and the replacement segment build.
	filters := []vfs.Fault{
		{Op: vfs.OpAny, Path: "quarantine"},
		{Op: vfs.OpAny, Path: "snap"},
		{Op: vfs.OpAny, Path: ".pst.tmp"},
		{Op: vfs.OpRemove},
	}

	enumRoot := t.TempDir()
	enumDir, enumSnap := buildFixture(t, enumRoot)
	rec := newOpRecorder()
	inj := vfs.NewInjecting(rec)
	inj.SetFaults(filters...)
	repairOnce(enumDir, enumSnap, inj)
	// The fault-free pass heals completely.
	e, err := Open(enumDir, o, Options{PageBytes: 192, FlushEntries: -1, compactFanout: -1})
	if err != nil {
		t.Fatal(err)
	}
	checkBothRows(t, e, o)
	e.Close()

	caseRoot := t.TempDir()
	for fi, f := range filters {
		total := inj.Matched(fi)
		if total == 0 {
			t.Fatalf("filter %+v matched no operations — repair no longer exercises it", f)
		}
		names := rec.names(t, f, total)
		for _, kind := range []vfs.Kind{vfs.KindFail, vfs.KindCrash} {
			for n := int64(1); n <= total; n++ {
				name := fmt.Sprintf("%s-%s-%s-n%d", f.Op, f.Path, kind, n)
				runFaultCase(t, name, names[n-1], func(t *testing.T) {
					dir, snapDir := buildFixture(t, caseDir(t, caseRoot))
					ifs := vfs.NewInjecting(vfs.OS{})
					ifs.SetFaults(vfs.Fault{Op: f.Op, Path: f.Path, N: n, Kind: kind})
					repairOnce(dir, snapDir, ifs)
					// Whatever the fault interrupted, the store is consistent...
					checkConsistent(t, dir)
					// ...and a clean retry converges: fully repaired, Healthy.
					e, err := Open(dir, o, Options{PageBytes: 192, FlushEntries: -1, compactFanout: -1})
					if err != nil {
						t.Fatalf("reopen for retry: %v", err)
					}
					defer e.Close()
					rep, err := e.Repair(snapDir)
					if err != nil {
						t.Fatalf("retry repair: %v (report %+v)", err, rep)
					}
					if rep.Health != Healthy {
						t.Fatalf("health after retry = %v (report %+v), want Healthy", rep.Health, rep)
					}
					checkBothRows(t, e, o)
				})
			}
		}
	}
}
