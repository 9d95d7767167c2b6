package engine

import (
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/vfs"
)

// snapOpts disables compaction so segment generation ranges (and hence
// which archived WALs a snapshot covers) are fully deterministic.
func snapOpts(fsys vfs.FS) Options {
	return Options{PageBytes: 192, FlushEntries: -1, CompactFanout: -1,
		SyncWrites: true, FS: fsys}
}

// TestSnapshotPITRRoundTrip is the point-in-time acceptance test: the
// fixed workload runs with a snapshot in the middle, and for a range of
// boundaries j the snapshot plus archived-WAL replay up to j must be
// bit-identical — records and cache-on/cache-off logical stats — to
// applying ops[:j] directly.
func TestSnapshotPITRRoundTrip(t *testing.T) {
	ops := fwWorkload()
	o := fwCurve(t)
	dir := t.TempDir()
	snapDir := filepath.Join(t.TempDir(), "snap")
	const snapAt = 50

	e, err := Open(dir, o, snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	var snapRep SnapshotReport
	for i, op := range ops {
		var werr error
		if op.del {
			werr = e.Delete(op.pt)
		} else {
			werr = e.Put(op.pt, op.pay)
		}
		if werr != nil {
			t.Fatalf("op %d: %v", i, werr)
		}
		switch i + 1 {
		case 25, 75:
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		case snapAt:
			// Snapshot flushes internally: it captures exactly ops[:snapAt].
			if snapRep, err = e.Snapshot(snapDir); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if snapRep.Epoch != 1 || snapRep.Segments == 0 || snapRep.Records == 0 {
		t.Fatalf("snapshot report %+v", snapRep)
	}

	for _, j := range []int{snapAt, snapAt + 1, snapAt + 13, 77, len(ops)} {
		target := filepath.Join(t.TempDir(), fmt.Sprintf("restored-%02d", j))
		rep, err := Restore(snapDir, target, j-snapAt, o, snapOpts(nil))
		if err != nil {
			t.Fatalf("restore to op %d: %v", j, err)
		}
		if rep.Replayed != j-snapAt {
			t.Fatalf("restore to op %d replayed %d records, want %d", j, rep.Replayed, j-snapAt)
		}
		got := fwRecover(t, target)
		if want := fwStateAfter(o, ops, j); !maps.Equal(got, want) {
			t.Fatalf("restore to op %d: %d records, want %d (state of ops[:%d])",
				j, len(got), len(want), j)
		}
	}

	// upTo < 0 restores to latest: every archived record replays.
	target := filepath.Join(t.TempDir(), "restored-all")
	rep, err := Restore(snapDir, target, -1, o, snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != len(ops)-snapAt {
		t.Fatalf("restore-to-latest replayed %d records, want %d", rep.Replayed, len(ops)-snapAt)
	}
	got := fwRecover(t, target)
	if !maps.Equal(got, fwStateAfter(o, ops, len(ops))) {
		t.Fatalf("restore-to-latest state diverges: %d records", len(got))
	}

	// Reference cross-check: a restored engine answers a full query with
	// the exact record set (points and payloads) of an engine that simply
	// applied the same prefix.
	ref, err := Open(t.TempDir(), o, snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for _, op := range ops {
		if op.del {
			err = ref.Delete(op.pt)
		} else {
			err = ref.Put(op.pt, op.pay)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	re, err := Open(target, o, snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	full := o.Universe().Rect()
	wantRecs, _, err := ref.Query(full)
	if err != nil {
		t.Fatal(err)
	}
	gotRecs, _, err := re.Query(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRecs) != len(wantRecs) {
		t.Fatalf("restored query: %d records, want %d", len(gotRecs), len(wantRecs))
	}
	for i := range wantRecs {
		if o.Index(gotRecs[i].Point) != o.Index(wantRecs[i].Point) || gotRecs[i].Payload != wantRecs[i].Payload {
			t.Fatalf("restored record %d = %+v, want %+v", i, gotRecs[i], wantRecs[i])
		}
	}
}

// TestSnapshotIncremental exercises set-difference export: the child
// snapshot reuses every parent segment, stores only new ones on disk,
// and restores through the parent chain.
func TestSnapshotIncremental(t *testing.T) {
	o := fwCurve(t)
	dir := t.TempDir()
	snaps := t.TempDir()
	s1, s2 := filepath.Join(snaps, "s1"), filepath.Join(snaps, "s2")
	e, err := Open(dir, o, snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	ops := fwWorkload()
	apply := func(from, to int) {
		t.Helper()
		for _, op := range ops[from:to] {
			var werr error
			if op.del {
				werr = e.Delete(op.pt)
			} else {
				werr = e.Put(op.pt, op.pay)
			}
			if werr != nil {
				t.Fatal(werr)
			}
		}
	}
	apply(0, 40)
	r1, err := e.Snapshot(s1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Epoch != 1 || r1.Reused != 0 || r1.Copied+r1.Linked != r1.Segments {
		t.Fatalf("full snapshot report %+v", r1)
	}
	apply(40, 90)
	r2, err := e.SnapshotSince(s2, s1)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Epoch != 2 {
		t.Fatalf("incremental epoch = %d, want 2", r2.Epoch)
	}
	if r2.Reused != r1.Segments {
		t.Fatalf("incremental reused %d segments, want all %d parent segments", r2.Reused, r1.Segments)
	}
	if r2.Copied+r2.Linked == 0 {
		t.Fatal("incremental snapshot exported nothing new")
	}
	// The child directory holds only the delta: reused segments resolve
	// through the parent.
	ents, err := os.ReadDir(s2)
	if err != nil {
		t.Fatal(err)
	}
	files := 0
	for _, ent := range ents {
		if !ent.IsDir() && ent.Name() != snapshotManifestName {
			files++
		}
	}
	if files != r2.Copied+r2.Linked {
		t.Fatalf("child snapshot holds %d segment files, want only the %d-file delta",
			files, r2.Copied+r2.Linked)
	}

	target := filepath.Join(t.TempDir(), "restored")
	if _, err := Restore(s2, target, -1, o, snapOpts(nil)); err != nil {
		t.Fatalf("restore through parent chain: %v", err)
	}
	got := fwRecover(t, target)
	if !maps.Equal(got, fwStateAfter(o, ops, 90)) {
		t.Fatalf("incremental restore diverges: %d records", len(got))
	}
}

// TestSnapshotHardlinksOnOS verifies the copy-free path: the production
// filesystem offers Link, so a snapshot on one device hardlinks instead
// of copying.
func TestSnapshotHardlinksOnOS(t *testing.T) {
	o := fwCurve(t)
	root := t.TempDir() // snapshot beside the engine: same device
	e, err := Open(filepath.Join(root, "db"), o, snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 30; i++ {
		if err := e.Put(fwPoint(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	rep, err := e.Snapshot(filepath.Join(root, "snap"))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Linked == 0 || rep.Copied != 0 {
		t.Fatalf("snapshot on the same device: %+v, want hardlinks", rep)
	}
}

func TestRestoreRefusals(t *testing.T) {
	o := fwCurve(t)
	dir := t.TempDir()
	snapDir := filepath.Join(t.TempDir(), "snap")
	e, err := Open(dir, o, snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	for i := 0; i < 10; i++ {
		if err := e.Put(fwPoint(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Snapshot(snapDir); err != nil {
		t.Fatal(err)
	}

	// An existing target is refused, not clobbered.
	occupied := t.TempDir()
	if _, err := Restore(snapDir, occupied, -1, o, snapOpts(nil)); err == nil {
		t.Fatal("restore into an existing directory succeeded")
	}

	// A snapshot of a different store is refused.
	other, err := core.NewOnion2D(32)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(snapDir, filepath.Join(t.TempDir(), "x"), -1, other, snapOpts(nil)); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("restore with mismatched curve = %v, want ErrSnapshot", err)
	}

	// A directory without a manifest is an interrupted export: refused.
	if err := os.Remove(filepath.Join(snapDir, snapshotManifestName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(snapDir, filepath.Join(t.TempDir(), "y"), -1, o, snapOpts(nil)); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("restore of uncommitted snapshot = %v, want ErrSnapshot", err)
	}

	// SnapshotSince against the now-manifestless parent is refused too.
	if _, err := e.SnapshotSince(filepath.Join(t.TempDir(), "z"), snapDir); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("incremental against uncommitted parent = %v, want ErrSnapshot", err)
	}
}

// TestArchiveFromFirstSnapshot pins what the engine keeps of a retired
// WAL. Before the first snapshot no restore can replay one, so it is
// deleted: flushes and a Close/reopen leave neither archive/ nor a
// retired log behind. From the first snapshot on, every retirement —
// the snapshot's own flush, later flushes, Close, and flushes after a
// reopen — is archived, and the snapshot restores to every point after
// it.
func TestArchiveFromFirstSnapshot(t *testing.T) {
	ops := fwWorkload()
	o := fwCurve(t)
	dir := t.TempDir()
	snapDir := filepath.Join(t.TempDir(), "snap")
	const snapAt = 40

	open := func() *Engine {
		t.Helper()
		e, err := Open(dir, o, snapOpts(nil))
		if err != nil {
			t.Fatal(err)
		}
		return e
	}
	apply := func(e *Engine, from, to int) {
		t.Helper()
		for _, op := range ops[from:to] {
			var err error
			if op.del {
				err = e.Delete(op.pt)
			} else {
				err = e.Put(op.pt, op.pay)
			}
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	flush := func(e *Engine) {
		t.Helper()
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	closeEngine := func(e *Engine) {
		t.Helper()
		if err := e.Close(); err != nil {
			t.Fatal(err)
		}
	}
	// live counts the WALs in the engine directory itself.
	live := func() int {
		t.Helper()
		wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
		if err != nil {
			t.Fatal(err)
		}
		return len(wals)
	}
	archived := func(want int, when string) {
		t.Helper()
		gens, err := archivedWALs(vfs.OS{}, archiveDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		if len(gens) != want {
			t.Fatalf("%s: %d archived WALs %v, want %d", when, len(gens), gens, want)
		}
	}
	noArchive := func(when string) {
		t.Helper()
		if _, err := os.Stat(archiveDir(dir)); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("%s: archive/ stat = %v, want absent", when, err)
		}
	}

	e := open()
	apply(e, 0, 10)
	flush(e)
	apply(e, 10, 20)
	flush(e)
	noArchive("two flushes before any snapshot")
	if n := live(); n != 1 {
		t.Fatalf("two flushes before any snapshot left %d WALs, want only the active one", n)
	}
	apply(e, 20, 30)
	closeEngine(e)
	if n := live(); n != 0 {
		t.Fatalf("a clean close left %d WALs", n)
	}
	e = open()
	noArchive("reopen before any snapshot")

	apply(e, 30, snapAt)
	if _, err := e.Snapshot(snapDir); err != nil {
		t.Fatal(err)
	}
	archived(1, "the snapshot's own flush")
	apply(e, snapAt, 55)
	flush(e)
	archived(2, "a flush after the snapshot")
	apply(e, 55, 65)
	closeEngine(e)
	archived(3, "close after the snapshot")
	e = open() // archive/ exists: archiving resumes
	apply(e, 65, 77)
	flush(e)
	archived(4, "a flush after the reopen")
	apply(e, 77, len(ops))
	closeEngine(e)
	archived(5, "the second close")

	for j := snapAt; j <= len(ops); j++ {
		target := filepath.Join(t.TempDir(), "restored")
		rep, err := Restore(snapDir, target, j-snapAt, o, snapOpts(nil))
		if err != nil {
			t.Fatalf("restore to op %d: %v", j, err)
		}
		if rep.Replayed != j-snapAt {
			t.Fatalf("restore to op %d replayed %d records, want %d", j, rep.Replayed, j-snapAt)
		}
		if got, want := fwRecover(t, target), fwStateAfter(o, ops, j); !maps.Equal(got, want) {
			t.Fatalf("restore to op %d: %d records, want %d (state of ops[:%d])", j, len(got), len(want), j)
		}
	}
}

// TestArchiveInvisibleToOpen: archived WALs and quarantine entries are
// subdirectory contents, which the engine's directory scan must skip.
func TestArchiveInvisibleToOpen(t *testing.T) {
	o := fwCurve(t)
	dir := t.TempDir()
	e, err := Open(dir, o, snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if err := e.Put(fwPoint(i), uint64(100+i)); err != nil {
			t.Fatal(err)
		}
		if i == 9 {
			// The archive starts at the first snapshot.
			if _, err := e.Snapshot(filepath.Join(t.TempDir(), "snap")); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if gens, err := archivedWALs(vfs.OS{}, archiveDir(dir)); err != nil || len(gens) == 0 {
		t.Fatalf("archive after flush: gens %v, err %v", gens, err)
	}
	// Reopening must not replay the archived history on top of the
	// segments that already cover it.
	got := fwRecover(t, dir)
	if len(got) != 20 {
		t.Fatalf("reopen with populated archive: %d records, want 20", len(got))
	}
	if _, err := os.Stat(filepath.Join(dir, "wal-000000000001.log")); err != nil && !errors.Is(err, fs.ErrNotExist) {
		t.Fatal(err)
	}
}

func TestSnapshotManifestRoundTrip(t *testing.T) {
	m := &snapManifest{
		curveName: "onion2d", dims: 2, side: 64, epoch: 3,
		parent:  "/tmp/with space/s2",
		archive: "/tmp/db/archive",
		segs: []snapSeg{
			{name: filepath.Base(segPath(".", 1, 2, 0)), size: 4096, recs: 17},
			{name: filepath.Base(segPath(".", 3, 3, 1)), size: 512, recs: 2},
		},
	}
	got, err := parseSnapshotManifest([]byte(m.body()))
	if err != nil {
		t.Fatal(err)
	}
	if got.curveName != m.curveName || got.dims != m.dims || got.side != m.side ||
		got.epoch != m.epoch || got.parent != m.parent || got.archive != m.archive ||
		len(got.segs) != len(m.segs) {
		t.Fatalf("round trip: %+v != %+v", got, m)
	}
	for i := range m.segs {
		if got.segs[i] != m.segs[i] {
			t.Fatalf("segment %d: %+v != %+v", i, got.segs[i], m.segs[i])
		}
	}
	for _, bad := range []string{
		"",
		"onion-snapshot v2\n",
		"onion-snapshot v1\ncurve onion2d\ndims 2\nside 64\nepoch 1\nparent -\narchive a\nsegments 1\n",
		"onion-snapshot v1\ncurve onion2d\ndims 2\nside 64\nepoch 1\nparent -\narchive a\nsegments 0\nstray line\n",
	} {
		if _, err := parseSnapshotManifest([]byte(bad)); !errors.Is(err, ErrSnapshot) {
			t.Fatalf("parse %q = %v, want ErrSnapshot", bad, err)
		}
	}
}
