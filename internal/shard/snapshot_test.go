package shard

import (
	"errors"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/pagedstore"
	"github.com/onioncurve/onion/internal/vfs"
)

func snapCurve(t *testing.T) curve.Curve {
	t.Helper()
	o, err := core.NewOnion2D(64)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// snapState queries the full universe and returns key → payload.
func snapState(t *testing.T, s *Sharded, c curve.Curve) map[uint64]uint64 {
	t.Helper()
	recs, _, err := s.Query(c.Universe().Rect())
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[uint64]uint64, len(recs))
	for _, r := range recs {
		m[c.Index(r.Point)] = r.Payload
	}
	return m
}

func mapsEqual(a, b map[uint64]uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if bv, ok := b[k]; !ok || bv != v {
			return false
		}
	}
	return true
}

// TestShardedSnapshotRestore: composite export, incremental export, and
// per-shard point-in-time restore all round-trip through the top-level
// epoch-stamped manifest.
func TestShardedSnapshotRestore(t *testing.T) {
	c := snapCurve(t)
	root := t.TempDir()
	dir := filepath.Join(root, "db")
	s1, s2 := filepath.Join(root, "snap1"), filepath.Join(root, "snap2")
	opts := manualShardOpts(2)
	opts.Engine.SyncWrites = true

	s, err := Open(dir, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	put := func(x, y uint32) {
		t.Helper()
		if err := s.Put(geom.Point{x, y}, uint64(x)*100+uint64(y)); err != nil {
			t.Fatal(err)
		}
	}
	for x := uint32(0); x < 16; x++ {
		for y := uint32(0); y < 16; y++ {
			put(x, y)
		}
	}
	r1, err := s.Snapshot(s1)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Epoch != 1 || len(r1.PerShard) != 2 || r1.Segments == 0 {
		t.Fatalf("full composite report %+v", r1)
	}
	for x := uint32(16); x < 24; x++ {
		for y := uint32(0); y < 16; y++ {
			put(x, y)
		}
	}
	r2, err := s.SnapshotSince(s2, s1)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Epoch != 2 || r2.Reused == 0 {
		t.Fatalf("incremental composite report %+v, want epoch 2 reusing parent segments", r2)
	}
	// Writes after the last snapshot reach a restore only via the shards'
	// archived WALs.
	for x := uint32(24); x < 28; x++ {
		for y := uint32(0); y < 16; y++ {
			put(x, y)
		}
	}
	want := snapState(t, s, c)
	wantAtS2 := make(map[uint64]uint64)
	for k, v := range want {
		if x := v / 100; x < 24 {
			wantAtS2[k] = v
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Restore-to-latest replays every archived WAL per shard.
	target := filepath.Join(root, "restored-all")
	reps, err := Restore(s2, target, -1, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(reps) != 2 {
		t.Fatalf("restore returned %d shard reports, want 2", len(reps))
	}
	rs, err := Open(target, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapState(t, rs, c); !mapsEqual(got, want) {
		t.Fatalf("restored state: %d records, want %d", len(got), len(want))
	}
	rs.Close()

	// upTo == 0 restores the snapshot boundary alone.
	target0 := filepath.Join(root, "restored-snap")
	if _, err := Restore(s2, target0, 0, c, opts); err != nil {
		t.Fatal(err)
	}
	rs0, err := Open(target0, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := snapState(t, rs0, c); !mapsEqual(got, wantAtS2) {
		t.Fatalf("snapshot-boundary restore: %d records, want %d", len(got), len(wantAtS2))
	}
	rs0.Close()

	// A mismatched configuration is refused.
	bad := manualShardOpts(3)
	if _, err := Restore(s2, filepath.Join(root, "x"), -1, c, bad); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("restore with wrong shard count = %v, want ErrSnapshot", err)
	}
	// An uncommitted composite (manifest missing) is refused.
	if err := os.Remove(filepath.Join(s2, snapshotManifestName)); err != nil {
		t.Fatal(err)
	}
	if _, err := Restore(s2, filepath.Join(root, "y"), -1, c, opts); !errors.Is(err, ErrSnapshot) {
		t.Fatalf("restore of uncommitted composite = %v, want ErrSnapshot", err)
	}
}

// nopHook is a commit hook that acknowledges every batch.
type nopHook struct{}

func (nopHook) Append(uint64, []byte) {}
func (nopHook) Commit(uint64) error   { return nil }

// TestEngineOptionsRejectServiceFields: the filesystem, the page cache
// and the commit hook are the service's to hand every shard engine, so
// Open and Restore reject each one set on Options.Engine — a commit hook
// set there would be shared by every shard.
func TestEngineOptionsRejectServiceFields(t *testing.T) {
	c := snapCurve(t)
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "src"), c, Options{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(geom.Point{1, 2}, 3); err != nil {
		t.Fatal(err)
	}
	snap := filepath.Join(dir, "snap")
	if _, err := s.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	for name, eo := range map[string]engine.Options{
		"FS":         {FS: vfs.OS{}},
		"Cache":      {Cache: pagedstore.NewCache(1 << 16)},
		"CommitHook": {CommitHook: nopHook{}},
	} {
		opts := Options{Shards: 2, Engine: eo}
		if s, err := Open(filepath.Join(dir, "open-"+name), c, opts); err == nil {
			s.Close() //nolint:errcheck
			t.Errorf("Open with Engine.%s set succeeded", name)
		}
		if _, err := Restore(snap, filepath.Join(dir, "restore-"+name), -1, c, opts); err == nil {
			t.Errorf("Restore with Engine.%s set succeeded", name)
		}
	}
}

// TestShardedRepair: one shard's segment rots; the composite Verify
// quarantines it, Repair heals it from the matching shard of the
// composite snapshot, and TryRecover reports every shard Healthy.
func TestShardedRepair(t *testing.T) {
	c := snapCurve(t)
	root := t.TempDir()
	dir := filepath.Join(root, "db")
	snap := filepath.Join(root, "snap")
	opts := manualShardOpts(2)
	opts.Engine.SyncWrites = true
	// No hardlink capability: the snapshot byte-copies, so corrupting the
	// source cannot reach the backup.
	opts.FS = vfs.NewInjecting(vfs.OS{})

	s, err := Open(dir, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck
	for x := uint32(0); x < 32; x++ {
		for y := uint32(0); y < 8; y++ {
			if err := s.Put(geom.Point{x, y}, uint64(x)*100+uint64(y)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	want := snapState(t, s, c)
	if _, err := s.Snapshot(snap); err != nil {
		t.Fatal(err)
	}

	// Corrupt the first segment file of the first shard that has one.
	segs, err := filepath.Glob(filepath.Join(dir, "shard-*", "*.pst"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no shard segments found: %v", err)
	}
	sort.Strings(segs)
	victim := segs[0]
	fi, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(victim, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	off := fi.Size() / 2
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	f.Close()

	vreps, err := s.Verify()
	if err != nil {
		t.Fatal(err)
	}
	quarantined := 0
	for _, vr := range vreps {
		quarantined += len(vr.Quarantined)
	}
	if quarantined != 1 {
		t.Fatalf("verify quarantined %d segments, want 1", quarantined)
	}
	degraded := 0
	for _, h := range s.Health() {
		if h.State == engine.Degraded {
			degraded++
		}
	}
	if degraded != 1 {
		t.Fatalf("%d shards degraded, want exactly 1", degraded)
	}

	rreps, err := s.Repair(snap)
	if err != nil {
		t.Fatal(err)
	}
	repaired := 0
	for _, rr := range rreps {
		repaired += rr.Repaired
		if len(rr.Unrepaired) != 0 {
			t.Fatalf("repair left files quarantined: %+v", rr)
		}
	}
	if repaired != 1 {
		t.Fatalf("repair fixed %d segments, want 1", repaired)
	}
	for _, h := range s.TryRecover() {
		if h.State != engine.Healthy || h.Err != nil {
			t.Fatalf("shard %d after repair: %v (err %v), want Healthy", h.Shard, h.State, h.Err)
		}
	}
	if got := snapState(t, s, c); !mapsEqual(got, want) {
		t.Fatalf("state after repair: %d records, want %d", len(got), len(want))
	}
}

// TestSnapshotEpochStrict: the composite manifest's epoch line holds a
// decimal number and nothing else; a manifest over its size bound is
// refused after reading only the bound, and one that embeds a v1
// directory manifest is refused. All fail as ErrSnapshot.
func TestSnapshotEpochStrict(t *testing.T) {
	c := snapCurve(t)
	id := curve.IdentityOf(c)
	dir := t.TempDir()
	path := filepath.Join(dir, snapshotManifestName)
	good := snapshotManifestBody(id, 2, 7)
	for _, tc := range []struct {
		name, body string
		ok         bool
	}{
		{"good", good, true},
		{"trailing word", strings.Replace(good, "epoch 7\n", "epoch 7 junk\n", 1), false},
		{"trailing bytes", strings.Replace(good, "epoch 7\n", "epoch 7x\n", 1), false},
		{"sign", strings.Replace(good, "epoch 7\n", "epoch +7\n", 1), false},
		{"two spaces", strings.Replace(good, "epoch 7\n", "epoch  7\n", 1), false},
		{"no number", strings.Replace(good, "epoch 7\n", "epoch \n", 1), false},
		{"oversized", good + strings.Repeat("x", maxSnapshotManifestBytes), false},
		{"v1 directory manifest", "onion-sharded-snapshot v1\nepoch 7\n" + v1Manifest, false},
	} {
		if err := os.WriteFile(path, []byte(tc.body), 0o644); err != nil {
			t.Fatal(err)
		}
		epoch, err := readSnapshotEpoch(vfs.OS{}, dir, id, 2)
		switch {
		case tc.ok && (err != nil || epoch != 7):
			t.Errorf("%s: epoch %d, %v; want 7", tc.name, epoch, err)
		case !tc.ok && !errors.Is(err, ErrSnapshot):
			t.Errorf("%s: %v, want ErrSnapshot", tc.name, err)
		}
	}
}
