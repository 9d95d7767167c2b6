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

	"github.com/onioncurve/onion/internal/baseline"
	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/vfs"
)

// snapOpts disables compaction so segment generation ranges (and hence
// which archived WALs a snapshot covers) are fully deterministic. A
// 136-byte page holds at most sixteen records of distinct keys, so a
// segment build pays a page write per sixteen entries or fewer — the fault
// points the snapshot and restore matrices enumerate.
func snapOpts(fsys vfs.FS) Options {
	return Options{PageBytes: 136, FlushEntries: -1, compactFanout: -1,
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
		id:      curve.Identity{Name: "onion2d", Dims: 2, Side: 64, Fingerprint: 0x0123456789abcdef},
		epoch:   3,
		parent:  "/tmp/with space/s2",
		archive: "/tmp/db/archive",
		segs: []snapSeg{
			{name: filepath.Base(segPath(".", 1, 2, 0)), id: segID{1, 2, 0}, size: 4096, recs: 17},
			{name: filepath.Base(segPath(".", 3, 3, 1)), id: segID{3, 3, 1}, size: 512, recs: 2},
		},
	}
	got, err := parseSnapshotManifest([]byte(m.body()))
	if err != nil {
		t.Fatal(err)
	}
	if got.id != m.id || got.epoch != m.epoch || got.parent != m.parent || got.archive != m.archive ||
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

// TestSnapshotManifestStrict: every number of a manifest is the whole
// of its field. A sign, a second space, a base prefix or trailing bytes
// after a number are damage, not a value, and fail as ErrSnapshot.
func TestSnapshotManifestStrict(t *testing.T) {
	m := &snapManifest{
		id:    curve.Identity{Name: "onion2d", Dims: 2, Side: 64, Fingerprint: 0x0123456789abcdef},
		epoch: 1,
		segs:  []snapSeg{{name: filepath.Base(segPath(".", 1, 2, 0)), id: segID{1, 2, 0}, size: 207, recs: 9}},
	}
	good := m.body()
	if _, err := parseSnapshotManifest([]byte(good)); err != nil {
		t.Fatalf("good manifest: %v", err)
	}
	seg := m.segs[0].name + " 207 9\n"
	for _, tc := range []struct{ old, new string }{
		{"epoch 1\n", "epoch 1 junk\n"},
		{"epoch 1\n", "epoch 1x\n"},
		{"epoch 1\n", "epoch +1\n"},
		{"epoch 1\n", "epoch -1\n"},
		{"epoch 1\n", "epoch  1\n"},
		{"epoch 1\n", "epoch 0x1\n"},
		{"epoch 1\n", "epoch \n"},
		{"epoch 1\n", "epoch 18446744073709551616\n"},
		{"segments 1\n", "segments 1 junk\n"},
		{"segments 1\n", "segments 01x\n"},
		{seg, m.segs[0].name + " 207 9xyz trailing\n"},
		{seg, m.segs[0].name + " 207 9xyz\n"},
		{seg, m.segs[0].name + " 207 9 \n"},
		{seg, m.segs[0].name + "  207 9\n"},
		{seg, m.segs[0].name + " -207 9\n"},
		{seg, m.segs[0].name + " 207 +9\n"},
		{seg, m.segs[0].name + " 9223372036854775808 9\n"},
		{seg, m.segs[0].name + " 207\n"},
	} {
		bad := strings.Replace(good, tc.old, tc.new, 1)
		if bad == good {
			t.Fatalf("%q not in the good manifest", tc.old)
		}
		if _, err := parseSnapshotManifest([]byte(bad)); !errors.Is(err, ErrSnapshot) {
			t.Errorf("line %q: %v, want ErrSnapshot", strings.TrimSuffix(tc.new, "\n"), err)
		}
	}
}

// applyFlushing applies ops[from:to] to e (opened at dir when nil),
// flushing after every tenth op so WAL generations retire along the
// way.
func applyFlushing(t *testing.T, dir string, ops []fwOp, from, to int, e *Engine) *Engine {
	t.Helper()
	if e == nil {
		var err error
		if e, err = Open(dir, fwCurve(t), snapOpts(nil)); err != nil {
			t.Fatal(err)
		}
	}
	for i, op := range ops[from:to] {
		var err error
		if op.del {
			err = e.Delete(op.pt)
		} else {
			err = e.Put(op.pt, op.pay)
		}
		if err != nil {
			t.Fatal(err)
		}
		if (from+i+1)%10 == 0 {
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	return e
}

// TestSeedManifestGoldenBytes pins a seed's manifest byte for byte: it
// is a full snapshot (parent -) that names no archive (archive -), and
// exporting it creates no archive/ and leaves the engine deleting the
// WALs it retires. The golden records the curve's identity; the v1 bytes
// earlier releases wrote, which record no fingerprint, are refused.
func TestSeedManifestGoldenBytes(t *testing.T) {
	ops := fwWorkload()
	dir := t.TempDir()
	seed := filepath.Join(t.TempDir(), "seed")
	e := applyFlushing(t, dir, ops, 0, 15, nil)
	if _, err := ExportSeed(e, seed); err != nil {
		t.Fatal(err)
	}
	e = applyFlushing(t, dir, ops, 15, 40, e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(archiveDir(dir)); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("archive/ after a seed and three flushes: stat = %v, want absent", err)
	}
	got, err := os.ReadFile(filepath.Join(seed, snapshotManifestName))
	if err != nil {
		t.Fatal(err)
	}
	const segs = "parent -\narchive -\nsegments 2\n" +
		"seg-000000000000-000000000000-000.pst 207 9\n" +
		"seg-000000000001-000000000001-000.pst 206 5\n"
	// The fingerprint is pinned too: a change to how it is computed would
	// refuse every directory written before it.
	const want = "onion-snapshot v2\ncurve onion\ndims 2\nside 64\nfingerprint 4fcd3dd6f7fc49bd\nepoch 1\n" + segs
	if string(got) != want {
		t.Fatalf("seed manifest:\n%s\nwant:\n%s", got, want)
	}
	m, err := parseSnapshotManifest([]byte(want))
	if err != nil {
		t.Fatal(err)
	}
	if m.parent != "" || m.archive != "" {
		t.Fatalf("parsed seed manifest: parent %q archive %q, want both absent", m.parent, m.archive)
	}
	target := filepath.Join(t.TempDir(), "restored")
	if _, err := Restore(seed, target, -1, fwCurve(t), snapOpts(nil)); err != nil {
		t.Fatal(err)
	}
	if got, want := fwRecover(t, target), fwStateAfter(fwCurve(t), ops, 15); !maps.Equal(got, want) {
		t.Fatalf("restore of the seed: %d records, want %d", len(got), len(want))
	}
	h, err := baseline.NewHilbert(2, fwSide)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(seed, target+"-h", -1, h, snapOpts(nil)); !errors.Is(err, curve.ErrMismatch) || !errors.Is(err, ErrSnapshot) {
		t.Fatalf("restore of the seed under Hilbert: %v, want ErrSnapshot wrapping ErrMismatch", err)
	}

	// v1, written before fingerprints: refused under its own curve, and
	// the seed is left as it is.
	const v1 = "onion-snapshot v1\ncurve onion\ndims 2\nside 64\nepoch 1\n" + segs
	if err := os.WriteFile(filepath.Join(seed, snapshotManifestName), []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	before := treeFiles(t, seed)
	if _, err := Restore(seed, target+"-v1", -1, fwCurve(t), snapOpts(nil)); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("restore of the v1 manifest: %v, want ErrSnapshot", err)
	}
	if _, err := os.Stat(target + "-v1"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("target after a refused restore: %v, want absent", err)
	}
	if !maps.Equal(treeFiles(t, seed), before) {
		t.Fatal("the refused restore changed the seed")
	}
}

// TestRestoreSeedStopsAtBoundary: a seed restores to its own boundary
// whatever upTo is, even when its source engine archives (a user
// snapshot started the archive before the seed) and has archived WALs
// past the seed. The seed leaves that archive running, and the user
// snapshot still restores past its boundary from it.
func TestRestoreSeedStopsAtBoundary(t *testing.T) {
	ops := fwWorkload()
	o := fwCurve(t)
	dir := t.TempDir()
	snap := filepath.Join(t.TempDir(), "snap")
	seed := filepath.Join(t.TempDir(), "seed")
	const snapAt, seedAt = 20, 45

	e := applyFlushing(t, dir, ops, 0, snapAt, nil)
	if _, err := e.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	e = applyFlushing(t, dir, ops, snapAt, seedAt, e)
	if _, err := ExportSeed(e, seed); err != nil {
		t.Fatal(err)
	}
	before, err := archivedWALs(vfs.OS{}, archiveDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	e = applyFlushing(t, dir, ops, seedAt, len(ops), e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := archivedWALs(vfs.OS{}, archiveDir(dir))
	if err != nil {
		t.Fatal(err)
	}
	if len(after) <= len(before) {
		t.Fatalf("archived WALs %v after the seed, %v before: an archiving engine must keep archiving", after, before)
	}

	for _, upTo := range []int{-1, 0, 7} {
		target := filepath.Join(t.TempDir(), "restored")
		rep, err := Restore(seed, target, upTo, o, snapOpts(nil))
		if err != nil {
			t.Fatalf("restore seed upTo %d: %v", upTo, err)
		}
		if rep.WALs != 0 || rep.Replayed != 0 {
			t.Fatalf("restore seed upTo %d replayed %d records from %d WALs, want none", upTo, rep.Replayed, rep.WALs)
		}
		if got, want := fwRecover(t, target), fwStateAfter(o, ops, seedAt); !maps.Equal(got, want) {
			t.Fatalf("restore seed upTo %d: %d records, want %d (state of ops[:%d])", upTo, len(got), len(want), seedAt)
		}
	}

	target := filepath.Join(t.TempDir(), "restored-snap")
	rep, err := Restore(snap, target, -1, o, snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != len(ops)-snapAt {
		t.Fatalf("restore of the user snapshot replayed %d records, want %d", rep.Replayed, len(ops)-snapAt)
	}
	if got, want := fwRecover(t, target), fwStateAfter(o, ops, len(ops)); !maps.Equal(got, want) {
		t.Fatalf("restore of the user snapshot: %d records, want %d", len(got), len(want))
	}
}

// TestRestoreParentFormatManifest: a user snapshot's manifest names the
// archive by path, and a restore replays the archive past its boundary.
// The same manifest in the v1 format older releases wrote, without the
// curve fingerprint, is refused (ErrSnapshot) and replays nothing.
func TestRestoreParentFormatManifest(t *testing.T) {
	ops := fwWorkload()
	o := fwCurve(t)
	dir := t.TempDir()
	snap := filepath.Join(t.TempDir(), "snap")
	const snapAt = 30

	e := applyFlushing(t, dir, ops, 0, snapAt, nil)
	if _, err := e.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	e = applyFlushing(t, dir, ops, snapAt, len(ops), e)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	rest := "epoch 1\n" +
		"parent -\narchive " + archiveDir(dir) + "\nsegments 3\n" +
		"seg-000000000000-000000000000-000.pst 207 9\n" +
		"seg-000000000001-000000000001-000.pst 207 9\n" +
		"seg-000000000002-000000000002-000.pst 207 9\n"
	path := filepath.Join(snap, snapshotManifestName)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := "onion-snapshot v2\n" + curve.IdentityOf(o).Lines() + rest; string(got) != want {
		t.Fatalf("user snapshot manifest:\n%s\nwant:\n%s", got, want)
	}
	m, err := parseSnapshotManifest(got)
	if err != nil {
		t.Fatal(err)
	}
	if m.archive != archiveDir(dir) {
		t.Fatalf("parsed archive %q, want %q", m.archive, archiveDir(dir))
	}
	target := filepath.Join(t.TempDir(), "restored")
	rep, err := Restore(snap, target, -1, o, snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != len(ops)-snapAt || rep.WALs == 0 {
		t.Fatalf("restore replayed %d records from %d WALs, want %d", rep.Replayed, rep.WALs, len(ops)-snapAt)
	}
	if got, want := fwRecover(t, target), fwStateAfter(o, ops, len(ops)); !maps.Equal(got, want) {
		t.Fatalf("restore: %d records, want %d", len(got), len(want))
	}

	literal := "onion-snapshot v1\ncurve onion\ndims 2\nside 64\n" + rest
	if err := os.WriteFile(path, []byte(literal), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = Restore(snap, filepath.Join(t.TempDir(), "v1"), -1, o, snapOpts(nil))
	if !errors.Is(err, ErrSnapshot) || rep.Replayed != 0 {
		t.Fatalf("restore of the v1 manifest: replayed %d, %v; want ErrSnapshot", rep.Replayed, err)
	}
}
