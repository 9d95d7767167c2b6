package repl

import (
	"errors"
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/pagedstore"
	"github.com/onioncurve/onion/internal/vfs"
)

// mxOp is one step of the deterministic fault-matrix workload.
type mxOp struct {
	p       geom.Point
	payload uint64
	del     bool
}

// mxWorkload mixes puts, overwrites and deletes over a small key set so
// last-writer-wins convergence is actually exercised, not just inserts.
func mxWorkload() []mxOp {
	ops := make([]mxOp, 0, 24)
	for i := 0; i < 24; i++ {
		op := mxOp{p: rtPoint(i % 16), payload: uint64(1000 + i)}
		if i%7 == 3 {
			op.del = true
		}
		ops = append(ops, op)
	}
	return ops
}

func mxApply(e *engine.Engine, op mxOp) error {
	if op.del {
		return e.Delete(op.p)
	}
	return e.Put(op.p, op.payload)
}

// mxRun drives the workload against the leader and returns how many
// leading ops were acknowledged. Once one op fails (quorum loss latches
// the engine read-only) every later op must fail too — a success after a
// failure would mean an un-acked write slipped past the degraded latch.
// A closing heartbeat resends to the lagging follower and pushes the
// final watermark, so those deliveries are injection points in every
// run instead of catch-up work that lands before or after the count
// depending on scheduling. So does a heartbeat halfway, which resends
// the backlog the lagging follower has built by then: the count never
// falls below what the commit path and the two heartbeats deliver, and
// catch-up-loop rounds, which depend on the machine's load, only add to
// it.
func mxRun(t *testing.T, g *Group, ops []mxOp) int {
	t.Helper()
	acked := 0
	failed := false
	for i, op := range ops {
		if i == len(ops)/2 {
			g.Heartbeat()
		}
		err := mxApply(g.Engine(), op)
		if err == nil {
			if failed {
				t.Fatalf("op %d succeeded after an earlier quorum failure", i)
			}
			acked++
			continue
		}
		if !errors.Is(err, engine.ErrQuorum) && !errors.Is(err, engine.ErrReadOnly) {
			t.Fatalf("op %d: unexpected error %v", i, err)
		}
		failed = true
	}
	g.Heartbeat()
	return acked
}

// mxOracle replays ops[:j] serially into a fresh solo engine and returns
// its fully compacted records and seek stats — the ground truth a
// promoted leader must be bit-identical to.
func mxOracle(t *testing.T, cl *cluster, ops []mxOp, j int) ([]engine.Record, engine.Stats) {
	t.Helper()
	dir := filepath.Join(t.TempDir(), fmt.Sprintf("oracle-%d", j))
	e, err := engine.Open(dir, cl.c, rtEngOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close() //nolint:errcheck
	for _, op := range ops[:j] {
		if err := mxApply(e, op); err != nil {
			t.Fatal(err)
		}
	}
	return mxNormalized(t, cl, e)
}

// mxNormalized flushes and compacts e, then queries the whole universe.
// Compaction lays every engine out page-for-page like a bulk load, so
// two engines holding the same logical records return bit-identical
// seek stats — the clustering-accounting contract from the engine docs.
func mxNormalized(t *testing.T, cl *cluster, e *engine.Engine) ([]engine.Record, engine.Stats) {
	t.Helper()
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	recs, stats, err := e.Query(cl.c.Universe().Rect())
	if err != nil {
		t.Fatal(err)
	}
	stats.IO = pagedstore.IOStats{} // cache-dependent, excluded from the contract
	return recs, stats
}

func mxEqual(cl *cluster, a, b []engine.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if cl.c.Index(a[i].Point) != cl.c.Index(b[i].Point) || a[i].Payload != b[i].Payload {
			return false
		}
	}
	return true
}

// mxScenario kills the leader transport at the n-th Append with the
// given kind, promotes the longest surviving follower at the quorum
// watermark, and proves the promoted state is bit-identical to a serial
// oracle of an acked-consistent prefix.
func mxScenario(t *testing.T, ops []mxOp, kind FaultKind, n int64) {
	cl := newCluster(t, 2, Config{
		retryBase: 200 * time.Microsecond, retryCap: time.Millisecond, retryAttempts: 2,
	})
	cl.tr.SetFaults(Fault{Op: FaultAppend, N: n, Kind: kind})
	acked := mxRun(t, cl.g, ops)

	// The leader is dead. Close its group (the transport latch already
	// stopped it reaching anyone) and bring the network back for the
	// survivors.
	cl.g.Close() //nolint:errcheck
	cl.g = nil
	cl.tr.SetFaults()
	cl.tr.Revive()

	s1, s2 := cl.fs[0].Status(), cl.fs[1].Status()
	w := QuorumWatermark([]uint64{s1.Last, s2.Last}, 2)
	pick := 0
	if s2.Last > s1.Last {
		pick = 1
	}
	other := 1 - pick
	cl.lb.Unregister(cl.ids[pick])
	ng, err := Promote(cl.fs[pick], w, Config{
		ID: "leader2", Peers: []string{cl.ids[other]}, Transport: cl.tr,
		retryBase: time.Millisecond,
	})
	if err != nil {
		t.Fatalf("promote %s at %d (lasts %d/%d, acked %d): %v",
			cl.ids[pick], w, s1.Last, s2.Last, acked, err)
	}
	defer ng.Close() //nolint:errcheck

	// Every quorum-acked op must survive; at most one in-flight op may
	// additionally appear (its ack was lost, e.g. crashack fired after
	// the follower made it durable). Nothing past that may resurrect.
	gotRecs, gotStats := mxNormalized(t, cl, ng.Engine())
	matched := -1
	for _, j := range []int{acked, acked + 1} {
		if j > len(ops) {
			continue
		}
		wantRecs, wantStats := mxOracle(t, cl, ops, j)
		if mxEqual(cl, gotRecs, wantRecs) {
			if gotStats != wantStats {
				t.Fatalf("records match oracle(%d) but stats diverge: got %+v want %+v", j, gotStats, wantStats)
			}
			matched = j
			break
		}
	}
	if matched < 0 {
		t.Fatalf("promoted state (%d records) matches neither oracle(%d) nor oracle(%d); lasts %d/%d watermark %d",
			len(gotRecs), acked, acked+1, s1.Last, s2.Last, w)
	}

	// The new leader must be live: a post-failover write reaches quorum
	// and converges on the surviving follower.
	probe := geom.Point{rtSide - 1, rtSide - 1}
	if err := ng.Engine().Put(probe, 424242); err != nil {
		t.Fatalf("post-failover write: %v", err)
	}
	ng.Heartbeat()
	st := stateOf(t, cl.c, cl.fs[other].Engine())
	if st[cl.c.Index(probe)] != 424242 {
		t.Fatalf("surviving follower missed the post-failover write")
	}
	if fs := cl.fs[other].Status(); fs.Applied != fs.Last {
		t.Fatalf("surviving follower lag: applied %d last %d", fs.Applied, fs.Last)
	}
}

// TestFailoverFaultMatrix kills the leader at every replication step —
// both before a delivery (crash) and one instant after the follower made
// it durable but before the ack returned (crashack) — then promotes a
// survivor and proves every quorum-acked batch survives, no un-acked
// suffix resurrects, and records and seek stats are bit-identical to a
// serial replay oracle.
func TestFailoverFaultMatrix(t *testing.T) {
	ops := mxWorkload()

	// Rehearsal: a clean run with a count-only rule enumerates how many
	// Append deliveries the workload generates, i.e. the injection points.
	cl := newCluster(t, 2, Config{})
	cl.tr.SetFaults(Fault{Op: FaultAppend}) // N=0: count, never fire
	if acked := mxRun(t, cl.g, ops); acked != len(ops) {
		t.Fatalf("rehearsal acked %d/%d", acked, len(ops))
	}
	total := cl.tr.Matched(0)
	if total < int64(len(ops)) {
		t.Fatalf("rehearsal counted %d appends for %d ops", total, len(ops))
	}
	cl.g.Close() //nolint:errcheck
	cl.g = nil

	// The count is at least what the commit path and mxRun's two
	// heartbeats deliver (30); catch-up rounds add to it under load. One
	// case past it is the fault-free control: unless its run delivers
	// more than the rehearsal did, the rule never fires and the leader
	// dies with every op delivered and acked. It also keeps the case
	// names from append1 to append31 present on an idle machine.
	stride := int64(1)
	if testing.Short() {
		stride = total/6 + 1
	}
	for _, kind := range []FaultKind{KindCrash, KindCrashAck} {
		for n := int64(1); n <= total+1; n += stride {
			t.Run(fmt.Sprintf("%s/append%d", kind, n), func(t *testing.T) {
				mxScenario(t, ops, kind, n)
			})
		}
	}
}

// TestPromoteKeepsFollowerEngineOptions: Promote reopens the follower's
// engine with the follower's own options, so the promoted leader stays
// on the filesystem Promote deletes the replication log through, and
// keeps its page size: a full scan of its compacted records reads the
// pages a store of the same records at 192-byte pages reads.
func TestPromoteKeepsFollowerEngineOptions(t *testing.T) {
	c := rtCurve(t)
	inj := vfs.NewInjecting(vfs.OS{})
	opts := rtEngOpts() // 192-byte pages
	opts.FS = inj
	f, err := OpenFollower("f1", t.TempDir(), c, FollowerOptions{Engine: opts})
	if err != nil {
		t.Fatal(err)
	}
	g, err := Promote(f, 0, Config{ID: "leader"})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close() //nolint:errcheck
	if g.Engine().FS() != inj {
		t.Fatalf("promoted engine on %T, want the follower's filesystem", g.Engine().FS())
	}
	var recs []pagedstore.Record
	for y := uint32(0); y < 4; y++ {
		for x := uint32(0); x < rtSide; x++ {
			r := pagedstore.Record{Point: geom.Point{x, y}, Payload: uint64(y*rtSide + x)}
			if err := g.Engine().Put(r.Point, r.Payload); err != nil {
				t.Fatal(err)
			}
			recs = append(recs, r)
		}
	}
	if err := g.Engine().Flush(); err != nil {
		t.Fatal(err)
	}
	if err := g.Engine().Compact(); err != nil {
		t.Fatal(err)
	}
	refPath := filepath.Join(t.TempDir(), "ref.pst")
	if err := pagedstore.Write(refPath, c, recs, opts.PageBytes); err != nil {
		t.Fatal(err)
	}
	ref, err := pagedstore.Open(refPath, c)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	full := c.Universe().Rect()
	_, st, err := g.Engine().Query(full)
	if err != nil {
		t.Fatal(err)
	}
	_, want, err := ref.Query(full)
	if err != nil {
		t.Fatal(err)
	}
	if st.Stats != want {
		t.Fatalf("promoted engine scan %+v, want the 192-byte-page store's %+v", st.Stats, want)
	}
}

// TestFailoverRejoin walks the full leader-death story once, linearly:
// quorum loss degrades the old leader, a survivor is promoted, the old
// leader is fenced by the higher epoch when the partition heals, and it
// rejoins as a follower only through a full re-seed — converging
// bit-identically and shedding the orphaned suffix it refused.
func TestFailoverRejoin(t *testing.T) {
	cl := newCluster(t, 2, Config{
		retryBase: time.Millisecond, retryCap: 2 * time.Millisecond, retryAttempts: 2,
	})
	ops := mxWorkload()
	for _, op := range ops {
		if err := mxApply(cl.g.Engine(), op); err != nil {
			t.Fatal(err)
		}
	}
	cl.g.Heartbeat()

	// Cut the old leader off and write an orphan it can never commit.
	cl.tr.Partition(cl.ids...)
	orphan := geom.Point{rtSide - 1, 0}
	if err := cl.g.Engine().Put(orphan, 666); err == nil {
		t.Fatal("orphan write committed under total partition")
	} else if !errors.Is(err, engine.ErrQuorum) {
		t.Fatalf("orphan write: %v", err)
	}

	// Promote f1 behind the old leader's back. "ex" — the id the old
	// leader will rejoin under — is a peer from the start; until it
	// registers, sends to it simply fail and are retried. f1 stays
	// registered (its consumed handler answers ErrClosed) so the old
	// leader's probes still see a reachable cluster.
	s1, s2 := cl.fs[0].Status(), cl.fs[1].Status()
	w := QuorumWatermark([]uint64{s1.Last, s2.Last}, 2)
	ng, err := Promote(cl.fs[0], w, Config{
		ID: "leader2", Peers: []string{"f2", "ex"}, Transport: cl.tr,
		retryBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ng.Close() //nolint:errcheck
	if ng.Epoch() <= 1 {
		t.Fatalf("promotion kept epoch %d", ng.Epoch())
	}

	// The partition heals with two leaders alive. The new epoch must win:
	// the new leader's write commits, and the old leader — whether its
	// own background catch-up already ran into epoch 2, or its next
	// explicit quorum round does — ends up fenced.
	cl.tr.Heal()
	if err := ng.Engine().Put(geom.Point{0, rtSide - 1}, 777); err != nil {
		t.Fatalf("new leader write: %v", err)
	}
	ng.Heartbeat()
	if _, err := cl.g.TryRecover(); err == nil {
		err = cl.g.Engine().Put(geom.Point{1, 1}, 888)
		if !errors.Is(err, engine.ErrQuorum) || !errors.Is(err, ErrFenced) {
			t.Fatalf("stale leader write: %v, want quorum+fenced", err)
		}
	} else if !errors.Is(err, ErrFenced) {
		t.Fatalf("old leader recover: %v", err)
	}
	if _, err := cl.g.TryRecover(); !errors.Is(err, ErrFenced) {
		t.Fatalf("fenced TryRecover: %v", err)
	}

	// The ex-leader rejoins as a follower. Its durable role says leader,
	// so it must be re-seeded before serving — its divergent suffix (the
	// orphan, plus the fenced 888 write sitting in its WAL) is shed
	// wholesale by the snapshot restore.
	dir := filepath.Join(filepath.Dir(cl.fs[0].dir), "leader")
	if err := cl.g.Close(); err != nil {
		t.Fatal(err)
	}
	cl.g = nil
	exf, err := OpenFollower("ex", dir, cl.c, FollowerOptions{Engine: rtEngOpts()})
	if err != nil {
		t.Fatal(err)
	}
	defer exf.Close() //nolint:errcheck
	if !exf.Status().MustSeed {
		t.Fatal("ex-leader rejoined without the re-seed latch")
	}
	cl.lb.Register("ex", exf)
	// The first heartbeat discovers the NeedSeed answer, the next one
	// ships the snapshot; give the exchange a few rounds.
	for i := 0; i < 20 && exf.Status().Seeds == 0; i++ {
		ng.Heartbeat()
	}
	if exf.Status().Seeds == 0 {
		t.Fatal("ex-leader was not re-seeded")
	}
	ng.Heartbeat()

	want := stateOf(t, cl.c, ng.Engine())
	if _, ok := want[cl.c.Index(orphan)]; ok {
		t.Fatal("orphan resurrected on the new leader")
	}
	assertSameState(t, cl.c, want, exf.Engine(), "ex-leader")
	assertSameState(t, cl.c, want, cl.fs[1].Engine(), "f2")
	if st := exf.Status(); st.MustSeed {
		t.Fatal("re-seed latch still set after seeding")
	}
}
