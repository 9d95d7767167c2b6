package repl

import (
	"fmt"
	"maps"
	"path/filepath"
	"testing"
	"time"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/curvetest"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/vfs"
)

// reopenFollower replaces follower i by one opened over the same
// directory with other engine options.
func (cl *cluster) reopenFollower(i int, opts engine.Options) *Follower {
	cl.t.Helper()
	if err := cl.fs[i].Close(); err != nil {
		cl.t.Fatal(err)
	}
	f, err := OpenFollower(cl.ids[i], cl.fs[i].dir, cl.c, FollowerOptions{Engine: opts})
	if err != nil {
		cl.t.Fatal(err)
	}
	cl.fs[i] = f
	cl.lb.Register(cl.ids[i], f)
	return f
}

// seedFaultRun builds a three-replica group whose f2 sits on a
// fault-injecting filesystem, lets f2 fall behind the resend window,
// hands it one seed directly with fault armed, and then lets the leader
// bring it back. It reports how many operations of the fault's class the
// direct seed performed, whether that seed failed, and whether the
// failure left f2 latched. Whatever the first seed did, f2 must converge.
func seedFaultRun(t *testing.T, fault vfs.Fault) (matched int64, failed, latched bool) {
	cl := newCluster(t, 2, Config{
		historyEntries: 4, seedRefreshEntries: 1,
		retryBase: time.Millisecond, retryCap: 2 * time.Millisecond, retryAttempts: 2,
	})
	inj := vfs.NewInjecting(vfs.OS{})
	opts := rtEngOpts()
	opts.FS = inj
	f2 := cl.reopenFollower(1, opts)
	dir := f2.dir

	e := cl.g.Engine()
	put := func(from, to int) {
		var ops []engine.BatchOp
		for i := from; i < to; i++ {
			ops = append(ops, engine.BatchOp{Key: rtKey(i), Payload: uint64(100 + i)})
		}
		if err := e.PutBatch(ops); err != nil {
			t.Fatal(err)
		}
	}
	put(0, 5)
	cl.g.Heartbeat()
	cl.tr.Partition("f2")
	// Each restored segment is a remove point of the seed. The catch-up
	// loop exports a snapshot (a flush) whenever it gets a turn, but each
	// put is one batch, so such a flush lands between batches, never
	// inside one: every batch becomes the same segments whether the loop
	// or an explicit flush below flushes it. With seedRefreshEntries 1 a
	// seed the loop exported is reused only if no entry came after it, so
	// the seed holds the same segments however the loop was scheduled, and
	// the enumerated points do not depend on scheduling.
	put(5, 12)
	flush := func() {
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	flush()
	put(12, 19)
	flush()
	put(19, 22)
	flush()
	put(22, 25)

	// Still partitioned, so the catch-up loop cannot get a seed of its
	// own in: the armed fault meets the seed handed over here.
	snap, base, baseEpoch, err := cl.g.ensureSeed()
	if err != nil {
		t.Fatal(err)
	}
	fault.Path = dir
	inj.SetFaults(fault)
	_, err = f2.HandleSeed(SeedRequest{
		Epoch: cl.g.Epoch(), LeaderID: "leader",
		Snapshot: snap, Base: base, BaseEpoch: baseEpoch,
	})
	matched = inj.Matched(0)
	inj.SetFaults()
	failed, latched = err != nil, f2.Status().MustSeed
	cl.tr.Heal()
	if latched && !failed {
		t.Fatalf("seed succeeded but left the follower latched")
	}

	// The leader still has f2 flagged behind the window: it seeds again.
	for i := 0; i < 30; i++ {
		cl.g.Heartbeat()
		if st := f2.Status(); !st.MustSeed && st.Applied == st.Last && cl.g.Lag()["f2"] == 0 {
			break
		}
	}
	put(25, 30)
	cl.g.Heartbeat()
	if st := f2.Status(); st.MustSeed || st.Applied != st.Last || cl.g.Lag()["f2"] != 0 {
		t.Fatalf("f2 did not recover after a seed that failed=%v (%v): %+v, lag %d", failed, err, st, cl.g.Lag()["f2"])
	}
	assertSameState(t, cl.c, stateOf(t, cl.c, e), f2.Engine(), "f2")
	return matched, failed, latched
}

// TestSeedFailureDoesNotWedgeFollower fails, one at a time, every rename
// and every remove a seed performs on the follower's filesystem — the
// swap of the restored directory into place among them. A seed that
// fails after the old handles were closed must leave the follower
// re-seedable: the leader's next seed succeeds and the replica
// converges, without reopening the process.
func TestSeedFailureDoesNotWedgeFollower(t *testing.T) {
	for _, op := range []vfs.Op{vfs.OpRename, vfs.OpRemove} {
		points, _, _ := seedFaultRun(t, vfs.Fault{Op: op}) // N = 0: count only
		if points == 0 {
			t.Fatalf("a seed performed no %v: nothing to inject", op)
		}
		anyLatched := false
		for n := int64(1); n <= points; n++ {
			t.Run(fmt.Sprintf("%v%d", op, n), func(t *testing.T) {
				// Not every point fails the seed: what the old engine's
				// close does is discarded with it.
				_, _, latched := seedFaultRun(t, vfs.Fault{Op: op, N: n, Kind: vfs.KindFail})
				anyLatched = anyLatched || latched
			})
		}
		if !anyLatched {
			t.Fatalf("no failed %v left the follower latched: the directory swap was not reached", op)
		}
	}
}

func archivedWALs(t *testing.T, dir string) int {
	t.Helper()
	wals, err := filepath.Glob(filepath.Join(dir, "archive", "wal-*.log"))
	if err != nil {
		t.Fatal(err)
	}
	return len(wals)
}

// TestFollowerSnapshotStopsAtItsBoundary pins the single-copy rule and
// what follows from it. A follower's engine deletes the WALs it retires,
// even after a snapshot of it, so after flushes and rotations its
// directory holds no archive, and a snapshot of it restores to the
// snapshot's own boundary and no further. A user snapshot of the leader
// under the same workload archives. Promote reopens a follower's engine
// with its own options and archiving back on: a cached seed the promoted leader has since
// moved past still catches a straggler up from the resend window, the
// seeds it exports leave it without an archive, and its first user
// snapshot starts one.
func TestFollowerSnapshotStopsAtItsBoundary(t *testing.T) {
	opts := rtEngOpts()
	opts.FlushEntries = 8 // frequent flushes retire WALs
	cfg := Config{
		historyEntries: 4, seedRefreshEntries: 1 << 20, engineOpts: opts,
		retryBase: time.Millisecond, retryCap: 2 * time.Millisecond, retryAttempts: 2,
	}
	cl := newCluster(t, 3, cfg)
	for i := range cl.fs {
		cl.reopenFollower(i, opts)
	}
	e := cl.g.Engine()
	put := func(e *engine.Engine, from, to int) {
		for i := from; i < to; i++ {
			if err := e.Put(rtPoint(i%40), uint64(100+i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	put(e, 0, 40)
	cl.g.Heartbeat()
	f2 := cl.fs[1]
	atSnapshot := stateOf(t, cl.c, f2.Engine())
	snap := filepath.Join(t.TempDir(), "snap")
	if _, err := f2.Engine().Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Snapshot(filepath.Join(t.TempDir(), "leader-snap")); err != nil {
		t.Fatal(err)
	}
	put(e, 40, 80) // overwrites every key the snapshot holds
	cl.g.Heartbeat()
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for i, f := range cl.fs {
		if err := f.Engine().Flush(); err != nil {
			t.Fatal(err)
		}
		// f1 is the fast peer: it took every entry by append, never by seed.
		if st := f.Engine().Stats(); i == 0 && st.Flushes < 2 {
			t.Fatalf("f1 flushed %d times: the test must retire WALs", st.Flushes)
		}
		if n := archivedWALs(t, f.dir); n != 0 {
			t.Fatalf("%s archived %d WALs; a follower keeps none", cl.ids[i], n)
		}
	}
	if archivedWALs(t, cl.g.dir) == 0 {
		t.Fatal("the leader archived no WAL under the same workload and snapshot")
	}

	restored := filepath.Join(t.TempDir(), "restored")
	if rep, err := engine.Restore(snap, restored, -1, cl.c, opts); err != nil {
		t.Fatal(err)
	} else if rep.WALs != 0 || rep.Replayed != 0 {
		t.Fatalf("restore of a follower snapshot replayed %d records from %d WALs, want none", rep.Replayed, rep.WALs)
	}
	re, err := engine.Open(restored, cl.c, opts)
	if err != nil {
		t.Fatal(err)
	}
	assertSameState(t, cl.c, atSnapshot, re, "restore of a follower snapshot")
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// The leader dies; f1 takes over f2 and f3.
	cl.g.Close() //nolint:errcheck
	cl.g = nil
	f1, f3 := cl.fs[0], cl.fs[2]
	w := QuorumWatermark([]uint64{f1.Status().Last, f2.Status().Last, f3.Status().Last}, 2)
	cl.lb.Unregister("f1")
	cfg.ID, cfg.Peers, cfg.Transport = "leader2", []string{"f2", "f3"}, cl.tr
	ng, err := Promote(f1, w, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer ng.Close() //nolint:errcheck

	ng.Heartbeat() // find out where the survivors are before the window moves

	// f3 drops behind the resend window, and the seed it gets when it
	// returns is a cached one the leader has since moved past: either
	// the catch-up loop exported it while trying to reach f3, or the
	// call below does and two more entries age it.
	seeds := f3.Status().Seeds
	cl.tr.Partition("f3")
	put(ng.Engine(), 80, 100)
	_, base, _, err := ng.ensureSeed()
	if err != nil {
		t.Fatal(err)
	}
	ng.mu.Lock()
	fresh := base == ng.nextIndex
	ng.mu.Unlock()
	if fresh {
		put(ng.Engine(), 100, 102)
	}
	cl.tr.Heal()
	for i := 0; i < 30; i++ {
		ng.Heartbeat()
		if st := f3.Status(); st.Seeds > seeds && st.Applied == st.Last && ng.Lag()["f3"] == 0 {
			break
		}
	}
	if st := f3.Status(); st.Seeds != seeds+1 || st.Base != base || st.Applied != st.Last || ng.Lag()["f3"] != 0 {
		t.Fatalf("f3 after the stale seed at %d: %+v, lag %d", base, st, ng.Lag()["f3"])
	}
	want := stateOf(t, cl.c, ng.Engine())
	assertSameState(t, cl.c, want, f2.Engine(), "f2")
	assertSameState(t, cl.c, want, f3.Engine(), "f3")

	// The promoted leader has exported seeds only, so it still deletes
	// what it retires; its first user snapshot starts the archive.
	put(ng.Engine(), 102, 110)
	if err := ng.Engine().Flush(); err != nil {
		t.Fatal(err)
	}
	if n := archivedWALs(t, f1.dir); n != 0 {
		t.Fatalf("the promoted leader archived %d WALs after seed exports only", n)
	}
	if _, err := ng.Engine().Snapshot(filepath.Join(t.TempDir(), "promoted-snap")); err != nil {
		t.Fatal(err)
	}
	put(ng.Engine(), 110, 118)
	if err := ng.Engine().Flush(); err != nil {
		t.Fatal(err)
	}
	if archivedWALs(t, f1.dir) == 0 {
		t.Fatal("the promoted leader archived no WAL after a user snapshot")
	}
}

// TestFollowerAppliesKeysWithoutCurve: a follower applies key-tagged
// entries as they are. Holding them, applying them and reopening over its
// engine's log evaluate the curve zero times beyond the reopen's curve
// identity, a fixed number of keys, and the engine ends up with the
// leader's records.
func TestFollowerAppliesKeysWithoutCurve(t *testing.T) {
	o, err := core.NewOnion2D(rtSide)
	if err != nil {
		t.Fatal(err)
	}
	c := &curvetest.Counting{PlannedCurve: o}
	dir := filepath.Join(t.TempDir(), "f1")
	f, err := OpenFollower("f1", dir, c, FollowerOptions{Engine: rtEngOpts()})
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint64]uint64)
	var es []Entry
	for i := uint64(1); i <= 4; i++ {
		var ops []engine.BatchOp
		for k := range 3 {
			n := int(3*i) + k
			ops = append(ops, engine.BatchOp{Key: rtKey(n), Payload: uint64(n)})
			want[rtKey(n)] = uint64(n)
		}
		es = append(es, Entry{Index: i, Epoch: 1, Batch: engine.EncodeBatch(nil, ops)})
	}
	c.Reset()
	if resp, err := appendFrom(f, AppendRequest{Epoch: 1, LeaderID: "leader", Entries: es[:2]}); err != nil || !resp.Ok {
		t.Fatalf("append: %+v, %v", resp, err)
	}
	if resp, err := appendFrom(f, AppendRequest{Epoch: 1, LeaderID: "leader", PrevIndex: 2, PrevEpoch: 1, Entries: es[2:]}); err != nil || !resp.Ok || resp.Ack != 4 {
		t.Fatalf("append: %+v, %v", resp, err)
	}
	// The bare watermark push applies the committed entries.
	if resp, err := appendFrom(f, AppendRequest{Epoch: 1, LeaderID: "leader", PrevIndex: 4, PrevEpoch: 1, Commit: 4}); err != nil || !resp.Ok {
		t.Fatalf("watermark push: %+v, %v", resp, err)
	}
	if f.Status().Applied != 4 {
		t.Fatalf("status %+v, want all four entries applied", f.Status())
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	if n, k := c.IndexKeys.Load(), c.CoordsKeys.Load(); n != 0 || k != 0 {
		t.Fatalf("holding and applying evaluated the curve at %d points and %d keys, want none", n, k)
	}
	c.Reset()
	curve.IdentityOf(c)
	idKeys := c.CoordsKeys.Load()
	c.Reset()
	if f, err = OpenFollower("f1", dir, c, FollowerOptions{Engine: rtEngOpts()}); err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck
	if n, k := c.IndexKeys.Load(), c.CoordsKeys.Load(); n != 0 || k != idKeys {
		t.Fatalf("follower evaluated the curve at %d points and %d keys, want none beyond its identity's %d", n, k, idKeys)
	}
	if got := stateOf(t, c, f.Engine()); !maps.Equal(got, want) {
		t.Fatalf("applied %v, want %v", got, want)
	}
}

// appendFrom delivers req to f as a leader on f's curve does: stamped
// with the curve's identity.
func appendFrom(f *Follower, req AppendRequest) (AppendResponse, error) {
	req.Curve = f.eng.Identity()
	return f.HandleAppend(req)
}
