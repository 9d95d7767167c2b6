package repl

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/vfs"
)

const rtSide = 32

func rtCurve(t testing.TB) curve.Curve {
	t.Helper()
	o, err := core.NewOnion2D(rtSide)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func rtPoint(i int) geom.Point {
	return geom.Point{uint32(i*7) % rtSide, uint32(i*13+5) % rtSide}
}

func rtEngOpts() engine.Options {
	return engine.Options{PageBytes: 192, FlushEntries: -1, CompactFanout: -1}
}

// cluster is a leader plus followers wired through a fault-injecting
// loopback transport.
type cluster struct {
	t   *testing.T
	c   curve.Curve
	lb  *Loopback
	tr  *Injecting
	g   *Group
	fs  []*Follower
	ids []string
}

func newCluster(t *testing.T, followers int, cfg Config) *cluster {
	t.Helper()
	cl := &cluster{t: t, c: rtCurve(t), lb: NewLoopback()}
	cl.tr = NewInjectingTransport(cl.lb)
	base := t.TempDir()
	for i := 0; i < followers; i++ {
		id := fmt.Sprintf("f%d", i+1)
		f, err := OpenFollower(id, filepath.Join(base, id), cl.c, FollowerOptions{Engine: rtEngOpts()})
		if err != nil {
			t.Fatal(err)
		}
		cl.lb.Register(id, f)
		cl.fs = append(cl.fs, f)
		cl.ids = append(cl.ids, id)
	}
	cfg.ID = "leader"
	cfg.Peers = cl.ids
	cfg.Transport = cl.tr
	if cfg.Engine.PageBytes == 0 {
		cfg.Engine = rtEngOpts()
	}
	if cfg.retryBase == 0 {
		cfg.retryBase = time.Millisecond
	}
	g, err := Lead(filepath.Join(base, "leader"), cl.c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cl.g = g
	t.Cleanup(func() {
		if cl.g != nil {
			cl.g.Close() //nolint:errcheck
		}
		for _, f := range cl.fs {
			f.Close() //nolint:errcheck
		}
	})
	return cl
}

// stateOf reads an engine's entire logical content as key → payload.
func stateOf(t testing.TB, c curve.Curve, e *engine.Engine) map[uint64]uint64 {
	t.Helper()
	recs, _, err := e.Query(c.Universe().Rect())
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[uint64]uint64, len(recs))
	for _, r := range recs {
		m[c.Index(r.Point)] = r.Payload
	}
	return m
}

func assertSameState(t *testing.T, c curve.Curve, want map[uint64]uint64, e *engine.Engine, who string) {
	t.Helper()
	got := stateOf(t, c, e)
	if len(got) != len(want) {
		t.Fatalf("%s: %d records, want %d", who, len(got), len(want))
	}
	for k, v := range want {
		if got[k] != v {
			t.Fatalf("%s: key %d = %d, want %d", who, k, got[k], v)
		}
	}
}

// TestReplBasic: a three-replica group converges bit-identically under
// a mixed workload of puts, deletes and batches.
func TestReplBasic(t *testing.T) {
	cl := newCluster(t, 2, Config{})
	e := cl.g.Engine()
	for i := 0; i < 40; i++ {
		if i%9 == 8 {
			if err := e.Delete(rtPoint(i - 4)); err != nil {
				t.Fatalf("del %d: %v", i, err)
			}
		} else if err := e.Put(rtPoint(i), uint64(1000+i)); err != nil {
			t.Fatalf("put %d: %v", i, err)
		}
	}
	batch := make([]engine.BatchOp, 10)
	for i := range batch {
		batch[i] = engine.BatchOp{Point: rtPoint(100 + i), Payload: uint64(5000 + i)}
	}
	if err := e.PutBatch(batch); err != nil {
		t.Fatal(err)
	}
	cl.g.Heartbeat()

	want := stateOf(t, cl.c, e)
	if len(want) == 0 {
		t.Fatal("leader is empty")
	}
	for i, f := range cl.fs {
		assertSameState(t, cl.c, want, f.Engine(), cl.ids[i])
		st := f.Status()
		if st.Applied == 0 || st.Applied != st.Last {
			t.Fatalf("%s: applied %d, last %d", cl.ids[i], st.Applied, st.Last)
		}
	}
	for id, lag := range cl.g.Lag() {
		if lag != 0 {
			t.Fatalf("%s lag %d after heartbeat", id, lag)
		}
	}
	snap := cl.g.Telemetry().Snapshot()
	if n := snap.Counter("repl_batches_total"); n == 0 {
		t.Fatal("repl_batches_total is zero")
	}
	// An entry is a batch: 40 one-op writes and one 10-op batch.
	if n := snap.Counter("repl_entries_shipped_total"); n < 41 {
		t.Fatalf("repl_entries_shipped_total = %d, want >= 41 per follower", n)
	}
	if m, _ := snap.Metric("repl_history_entries"); m.Int != 41 {
		t.Fatalf("repl_history_entries = %d, want the 41 batches written", m.Int)
	}
}

// TestReplQuorumLossDegrades: losing quorum fails the write with
// ErrQuorum, latches the engine ReadOnly (reads keep serving, writes
// fail fast), TryRecover refuses while partitioned, and recovery after
// healing restores Healthy with no resurrected orphan anywhere.
func TestReplQuorumLossDegrades(t *testing.T) {
	cl := newCluster(t, 2, Config{retryBase: time.Millisecond, retryCap: 2 * time.Millisecond, retryAttempts: 2})
	e := cl.g.Engine()
	for i := 0; i < 10; i++ {
		if err := e.Put(rtPoint(i), uint64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	orphan := geom.Point{rtSide - 1, rtSide - 1}
	orphanKey := cl.c.Index(orphan)
	if _, clash := stateOf(t, cl.c, e)[orphanKey]; clash {
		t.Fatal("workload clashes with the orphan probe point")
	}

	cl.tr.Partition(cl.ids...)
	err := e.Put(orphan, 999999)
	if !errors.Is(err, engine.ErrQuorum) {
		t.Fatalf("partitioned put: %v, want ErrQuorum", err)
	}
	if !errors.Is(err, engine.ErrReadOnly) {
		t.Fatalf("partitioned put: %v, want ErrReadOnly wrap", err)
	}
	// Reads still serve, without the failed write.
	if _, ok := stateOf(t, cl.c, e)[orphanKey]; ok {
		t.Fatal("failed write visible on leader")
	}
	// Later writes fail fast on the ReadOnly latch.
	if err := e.Put(rtPoint(50), 1); !errors.Is(err, engine.ErrReadOnly) {
		t.Fatalf("degraded put: %v, want ErrReadOnly", err)
	}
	if _, err := cl.g.TryRecover(); !errors.Is(err, ErrPartitioned) {
		t.Fatalf("partitioned TryRecover: %v, want ErrPartitioned", err)
	}

	cl.tr.Heal()
	h, err := cl.g.TryRecover()
	if err != nil || h != engine.Healthy {
		t.Fatalf("TryRecover after heal: %v, %v", h, err)
	}
	for i := 10; i < 20; i++ {
		if err := e.Put(rtPoint(i), uint64(100+i)); err != nil {
			t.Fatalf("post-recovery put %d: %v", i, err)
		}
	}
	cl.g.Heartbeat()
	want := stateOf(t, cl.c, e)
	if _, ok := want[orphanKey]; ok {
		t.Fatal("orphan resurrected on leader")
	}
	for i, f := range cl.fs {
		assertSameState(t, cl.c, want, f.Engine(), cl.ids[i])
	}
}

// TestReplOrphanTruncatedOnFollower: a batch that reaches a minority
// before the quorum round fails leaves real entries on one follower.
// After recovery those indices are permanent gaps; the next append must
// make the follower detect the divergence and drop the orphans, so the
// refused write never reaches any follower's engine.
func TestReplOrphanTruncatedOnFollower(t *testing.T) {
	cl := newCluster(t, 3, Config{retryBase: time.Millisecond, retryCap: 2 * time.Millisecond, retryAttempts: 2})
	e := cl.g.Engine()
	for i := 0; i < 8; i++ {
		if err := e.Put(rtPoint(i), uint64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	cl.g.Heartbeat()

	orphan := geom.Point{rtSide - 1, rtSide - 1}
	orphanKey := cl.c.Index(orphan)
	// Quorum is 3 of 4: with two followers cut off, the batch lands on
	// f1's replication log (2 replicas) but fails its round.
	cl.tr.Partition("f2", "f3")
	if err := e.Put(orphan, 999999); !errors.Is(err, engine.ErrQuorum) {
		t.Fatalf("minority put: %v, want ErrQuorum", err)
	}
	if st := cl.fs[0].Status(); st.Last <= st.Applied {
		t.Fatalf("orphan did not reach f1's log: %+v", st)
	}

	cl.tr.Heal()
	if h, err := cl.g.TryRecover(); err != nil || h != engine.Healthy {
		t.Fatalf("TryRecover: %v, %v", h, err)
	}
	for i := 8; i < 16; i++ {
		if err := e.Put(rtPoint(i), uint64(100+i)); err != nil {
			t.Fatalf("post-recovery put %d: %v", i, err)
		}
	}
	cl.g.Heartbeat()
	want := stateOf(t, cl.c, e)
	if _, ok := want[orphanKey]; ok {
		t.Fatal("orphan on leader")
	}
	for i, f := range cl.fs {
		assertSameState(t, cl.c, want, f.Engine(), cl.ids[i])
		if _, ok := stateOf(t, cl.c, f.Engine())[orphanKey]; ok {
			t.Fatalf("orphan resurrected on %s", cl.ids[i])
		}
		st := f.Status()
		if st.Applied != st.Last {
			t.Fatalf("%s: applied %d != last %d", cl.ids[i], st.Applied, st.Last)
		}
	}
}

// TestReplSeedCatchup: a follower partitioned past the leader's history
// window rejoins by snapshot seed and converges.
func TestReplSeedCatchup(t *testing.T) {
	cl := newCluster(t, 2, Config{historyEntries: 4, seedRefreshEntries: 1 << 20})
	e := cl.g.Engine()
	cl.tr.Partition("f2")
	for i := 0; i < 30; i++ {
		if err := e.Put(rtPoint(i), uint64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	cl.tr.Heal()
	cl.g.Heartbeat()
	want := stateOf(t, cl.c, e)
	assertSameState(t, cl.c, want, cl.fs[1].Engine(), "f2")
	if st := cl.fs[1].Status(); st.Seeds == 0 {
		t.Fatalf("f2 was not seeded: %+v", st)
	}
	if n := cl.g.Telemetry().Snapshot().Counter("repl_seeds_total"); n == 0 {
		t.Fatal("repl_seeds_total is zero")
	}
}

// TestReplLogRecovery: the follower log keeps its longest valid prefix
// across torn tails, and truncate/compact round-trip durably.
func TestReplLogRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := openReplLog(vfs.OS{}, dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	var es []Entry
	for i := 1; i <= 10; i++ {
		es = append(es, Entry{Index: uint64(i), Epoch: 1, Batch: []byte{byte(i), 0xab, 0xcd}})
	}
	if err := l.append(es); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail mid-entry: replay must keep exactly the prefix.
	path := filepath.Join(dir, logName)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, fi.Size()-2); err != nil {
		t.Fatal(err)
	}
	l, err = openReplLog(vfs.OS{}, dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	if li, _, _ := l.last(); li != 9 {
		t.Fatalf("after torn tail: last = %d, want 9", li)
	}

	if err := l.truncateAfter(6); err != nil {
		t.Fatal(err)
	}
	if err := l.compactThrough(2); err != nil {
		t.Fatal(err)
	}
	if err := l.append([]Entry{{Index: 8, Epoch: 2, Batch: []byte{8}}}); err != nil {
		t.Fatal(err)
	}
	l.close() //nolint:errcheck
	l, err = openReplLog(vfs.OS{}, dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	defer l.close() //nolint:errcheck
	wantIdx := []uint64{3, 4, 5, 6, 8}
	if len(l.entries) != len(wantIdx) {
		t.Fatalf("%d entries, want %d", len(l.entries), len(wantIdx))
	}
	for i, w := range wantIdx {
		if l.entries[i].Index != w {
			t.Fatalf("entry %d: index %d, want %d", i, l.entries[i].Index, w)
		}
	}
	if ep, ok := l.at(8); !ok || ep != 2 {
		t.Fatalf("at(8) = %d, %v", ep, ok)
	}
	if _, ok := l.at(7); ok {
		t.Fatal("at(7) found a gap index")
	}
}

// TestQuorumWatermark pins the promotion safety rule.
func TestQuorumWatermark(t *testing.T) {
	cases := []struct {
		lasts  []uint64
		quorum int
		want   uint64
	}{
		{[]uint64{10, 7}, 2, 10},        // 3 replicas: acked needs 1 follower
		{[]uint64{10, 7, 3}, 3, 7},      // 5 replicas (one down): needs 2 followers
		{[]uint64{10, 7, 3, 2}, 3, 7},   // 5 replicas: needs 2 followers
		{[]uint64{5}, 3, 0},             // too few survivors to attest anything
		{[]uint64{12}, 1, 12},           // degenerate single-node quorum
		{[]uint64{4, 4, 4, 4, 4}, 4, 4}, // unanimous
	}
	for i, tc := range cases {
		if got := QuorumWatermark(tc.lasts, tc.quorum); got != tc.want {
			t.Errorf("case %d: QuorumWatermark(%v, %d) = %d, want %d", i, tc.lasts, tc.quorum, got, tc.want)
		}
	}
}

// TestLeadEngineForcesSyncWrites: an engine opened with a commit hook but
// without SyncWrites still puts every write through a quorum round, so
// with every peer partitioned a Put fails with ErrQuorum instead of
// being acknowledged on the leader alone.
func TestLeadEngineForcesSyncWrites(t *testing.T) {
	c := rtCurve(t)
	base := t.TempDir()
	lb := NewLoopback()
	tr := NewInjectingTransport(lb)
	var ids []string
	for _, id := range []string{"f1", "f2"} {
		f, err := OpenFollower(id, filepath.Join(base, id), c, FollowerOptions{Engine: rtEngOpts()})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close() //nolint:errcheck
		lb.Register(id, f)
		ids = append(ids, id)
	}
	hook := NewHook(c.Universe().Dims())
	opts := rtEngOpts() // SyncWrites off
	opts.CommitHook = hook
	dir := filepath.Join(base, "leader")
	eng, err := engine.Open(dir, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close() //nolint:errcheck
	g, err := LeadEngine(eng, dir, hook, Config{
		ID: "leader", Peers: ids, Transport: tr,
		retryBase: time.Millisecond, retryCap: 2 * time.Millisecond, retryAttempts: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close() //nolint:errcheck
	tr.Partition(ids...)
	if err := eng.Put(rtPoint(1), 1); !errors.Is(err, engine.ErrQuorum) {
		t.Fatalf("put with every peer partitioned: %v, want ErrQuorum", err)
	}
}

// TestLeaderAllocsPerBatchFlat pins the leader's cost per batch: the
// hook copies the batch's bytes once, whatever it holds, so a 64-op
// batch allocates no more than a 1-op batch. The group has no peers, so
// the transport allocates nothing either.
func TestLeaderAllocsPerBatchFlat(t *testing.T) {
	g, err := Lead(t.TempDir(), rtCurve(t), Config{ID: "leader", Engine: rtEngOpts()})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close() //nolint:errcheck
	allocs := func(n int) float64 {
		ops := make([]engine.BatchOp, n)
		for i := range ops {
			ops[i] = engine.BatchOp{Point: rtPoint(i), Payload: uint64(i)}
		}
		return testing.AllocsPerRun(50, func() {
			if err := g.Engine().PutBatch(ops); err != nil {
				t.Fatal(err)
			}
		})
	}
	one, many := allocs(1), allocs(64)
	t.Logf("allocs per batch: %v for 1 op, %v for 64 ops", one, many)
	if many > one {
		t.Fatalf("a 64-op batch allocates %v times, a 1-op batch %v: the leader allocates per op", many, one)
	}
}
