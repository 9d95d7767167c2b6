package repl

import (
	"fmt"
	"path/filepath"
	"testing"
	"time"

	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/vfs"
)

// leadEngineCluster wires followers plus a LeadEngine-led leader whose
// engine is opened by the test (the shard.OpenReplicated shape), so the
// engine's real options and cfg.Engine can differ.
type leadEngineCluster struct {
	*cluster
	eng *engine.Engine
}

func newLeadEngineCluster(t *testing.T, followers int, opts engine.Options, cfg Config) *leadEngineCluster {
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
	lc := &leadEngineCluster{cluster: cl}
	hook := NewHook(cl.c.Universe().Dims())
	opts.CommitHook = hook
	opts.SyncWrites = true
	eng, err := engine.Open(filepath.Join(base, "leader"), cl.c, opts)
	if err != nil {
		t.Fatal(err)
	}
	lc.eng = eng
	cfg.ID = "leader"
	cfg.Peers = cl.ids
	cfg.Transport = cl.tr
	if cfg.retryBase == 0 {
		cfg.retryBase = time.Millisecond
	}
	g, err := LeadEngine(eng, filepath.Join(base, "leader"), hook, cfg)
	if err != nil {
		eng.Close() //nolint:errcheck
		t.Fatal(err)
	}
	cl.g = g
	t.Cleanup(func() {
		if cl.g != nil {
			cl.g.Close() //nolint:errcheck
		}
		eng.Close() //nolint:errcheck
		for _, f := range cl.fs {
			f.Close() //nolint:errcheck
		}
	})
	return lc
}

// TestLeadEngineReopenReseeds: the documented reopen path — LeadEngine
// over an ex-leader directory under a higher epoch — restarts the
// replication index namespace at zero while the followers still hold
// high old-epoch indices. Every follower must be re-seeded: a follower
// whose log has compacted (base > 0) answers the reopened leader's
// first Append with a resend hint Ack = its old last index, and
// adopting that hint would satisfy ack >= target and acknowledge
// quorum for writes no follower holds.
func TestLeadEngineReopenReseeds(t *testing.T) {
	c := rtCurve(t)
	lb := NewLoopback()
	tr := NewInjectingTransport(lb)
	base := t.TempDir()
	var fs []*Follower
	ids := []string{"f1", "f2"}
	for _, id := range ids {
		// Tiny log cap: the followers compact during the first life, so
		// the reopened leader meets base > 0 — the exact state whose
		// resend hint used to be adopted as a fake ack.
		f, err := OpenFollower(id, filepath.Join(base, id), c,
			FollowerOptions{Engine: rtEngOpts(), maxLogEntries: 4})
		if err != nil {
			t.Fatal(err)
		}
		lb.Register(id, f)
		fs = append(fs, f)
	}
	defer func() {
		for _, f := range fs {
			f.Close() //nolint:errcheck
		}
	}()
	leaderDir := filepath.Join(base, "leader")
	g, err := Lead(leaderDir, c, Config{
		ID: "leader", Peers: ids, Transport: tr,
		Engine: rtEngOpts(), retryBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	e := g.Engine()
	for i := 0; i < 20; i++ {
		if err := e.Put(rtPoint(i), uint64(100+i)); err != nil {
			t.Fatal(err)
		}
		g.Heartbeat() // watermark pushes drive apply + compaction
	}
	for i, f := range fs {
		if st := f.Status(); st.Base == 0 {
			t.Fatalf("%s never compacted (base 0): the test must meet the compacted-follower state", ids[i])
		} else if st.Last < 20 {
			t.Fatalf("%s holds %d entries, want 20", ids[i], st.Last)
		}
	}
	if err := g.Close(); err != nil {
		t.Fatal(err)
	}

	hook := NewHook(c.Universe().Dims())
	opts := rtEngOpts()
	opts.CommitHook = hook
	opts.SyncWrites = true
	eng, err := engine.Open(leaderDir, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close() //nolint:errcheck
	ng, err := LeadEngine(eng, leaderDir, hook, Config{
		ID: "leader", Peers: ids, Transport: tr, Epoch: 2,
		retryBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer ng.Close() //nolint:errcheck

	// A post-reopen write's ack must mean real follower durability —
	// checked before any catch-up round runs, since a later heartbeat
	// would repair the divergence and hide a fake quorum ack. The write
	// is the reopened namespace's first entry (index 1, epoch 2) and the
	// quorum's fast-path follower is the first peer.
	if err := eng.Put(rtPoint(50), 4242); err != nil {
		t.Fatalf("post-reopen put: %v", err)
	}
	fs[0].mu.Lock()
	ep, held := fs[0].log.at(1)
	fs[0].mu.Unlock()
	if !held || ep != 2 {
		t.Fatalf("acked post-reopen write is not durable on f1: at(1) = epoch %d, held %v", ep, held)
	}
	ng.Heartbeat()
	want := stateOf(t, c, eng)
	if len(want) < 20 {
		t.Fatalf("leader lost pre-reopen data: %d records", len(want))
	}
	for i, f := range fs {
		if st := f.Status(); st.Seeds == 0 {
			t.Fatalf("%s rejoined the reopened leader without a seed: %+v", ids[i], st)
		}
		assertSameState(t, c, want, f.Engine(), ids[i])
	}
	for id, lag := range ng.Lag() {
		if lag != 0 {
			t.Fatalf("%s lag %d after reopen heartbeat", id, lag)
		}
	}
}

// TestLeadNonEmptyEngineSeedsPeers: Lead over a directory holding a
// pre-existing (never-replicated) engine must push the pre-existing
// dataset to the followers by snapshot seed — it never flows through
// the commit hook, so quorum acks for new writes alone would leave a
// promoted follower silently missing everything that predated Lead.
func TestLeadNonEmptyEngineSeedsPeers(t *testing.T) {
	c := rtCurve(t)
	base := t.TempDir()
	leaderDir := filepath.Join(base, "leader")
	pre, err := engine.Open(leaderDir, c, rtEngOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := pre.Put(rtPoint(i), uint64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := pre.Close(); err != nil {
		t.Fatal(err)
	}

	lb := NewLoopback()
	tr := NewInjectingTransport(lb)
	var fs []*Follower
	ids := []string{"f1", "f2"}
	for _, id := range ids {
		f, err := OpenFollower(id, filepath.Join(base, id), c, FollowerOptions{Engine: rtEngOpts()})
		if err != nil {
			t.Fatal(err)
		}
		lb.Register(id, f)
		fs = append(fs, f)
	}
	defer func() {
		for _, f := range fs {
			f.Close() //nolint:errcheck
		}
	}()
	g, err := Lead(leaderDir, c, Config{
		ID: "leader", Peers: ids, Transport: tr,
		Engine: rtEngOpts(), retryBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close() //nolint:errcheck

	if err := g.Engine().Put(rtPoint(20), 777); err != nil {
		t.Fatal(err)
	}
	g.Heartbeat()
	want := stateOf(t, c, g.Engine())
	if len(want) < 10 {
		t.Fatalf("leader lost pre-existing data: %d records", len(want))
	}
	for i, f := range fs {
		if st := f.Status(); st.Seeds == 0 {
			t.Fatalf("%s was not seeded with the pre-existing dataset: %+v", ids[i], st)
		}
		assertSameState(t, c, want, f.Engine(), ids[i])
	}
}

// TestReplBatchLargerThanHistory: a single batch larger than the resend
// window must not trim its own uncommitted entries — that would force
// its followers into a seed that cannot be exported while the write is
// in flight, failing the quorum round against healthy replicas (and, in
// the extreme, trimming every entry of the rendezvous window and
// acknowledging with no quorum check at all). The window is allowed to
// balloon for the batch's lifetime and snaps back afterwards.
func TestReplBatchLargerThanHistory(t *testing.T) {
	cl := newCluster(t, 2, Config{HistoryEntries: 4})
	e := cl.g.Engine()
	batch := make([]engine.BatchOp, 30)
	for i := range batch {
		batch[i] = engine.BatchOp{Point: rtPoint(i), Payload: uint64(1000 + i)}
	}
	if err := e.PutBatch(batch); err != nil {
		t.Fatalf("oversized batch: %v", err)
	}
	if h, err := e.Health(); err != nil || h != engine.Healthy {
		t.Fatalf("health after oversized batch: %v, %v", h, err)
	}
	cl.g.Heartbeat()
	want := stateOf(t, cl.c, e)
	for i, f := range cl.fs {
		assertSameState(t, cl.c, want, f.Engine(), cl.ids[i])
	}
	// The batch was covered by live history, never by seed.
	for i, f := range cl.fs {
		if st := f.Status(); st.Seeds != 0 {
			t.Fatalf("%s needed a seed for an in-window batch: %+v", cl.ids[i], st)
		}
	}
	// The ballooned window snaps back once the watermark passes.
	if err := e.Put(rtPoint(40), 1); err != nil {
		t.Fatal(err)
	}
	cl.g.mu.Lock()
	histLen := len(cl.g.hist.live)
	cl.g.mu.Unlock()
	if histLen > 4 {
		t.Fatalf("history window did not snap back: %d entries, cap 4", histLen)
	}
}

// TestReplLogAppendAfterHandleLoss: once the log's file handle is gone
// (a rewrite that renamed but could not reopen poisons it, close nils
// it), append must fail loudly — never "succeed" against a missing or
// unlinked file and let acknowledged entries vanish on restart.
func TestReplLogAppendAfterHandleLoss(t *testing.T) {
	l, err := openReplLog(vfs.OS{}, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := l.append([]Entry{{Index: 1, Epoch: 1, Op: []byte{1}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	if err := l.append([]Entry{{Index: 2, Epoch: 1, Op: []byte{2}}}); err == nil {
		t.Fatal("append with a lost handle reported success")
	}
}

// TestSeedRefreshReadsEngineRetention: with LeadEngine the engine's real
// options live on the engine, not on cfg.Engine (which may be zero). A
// leader whose engine prunes archived WALs must refresh the seed
// snapshot for every seed round — reusing a cached seed whose restore
// chain depends on pruned archives would under-fill the follower while
// Base overstates its coverage.
func TestSeedRefreshReadsEngineRetention(t *testing.T) {
	opts := rtEngOpts()
	opts.FlushEntries = 8 // frequent flushes rotate WALs into the archive
	opts.WALRetention = 1 // prune aggressively: stale seeds go bad
	lc := newLeadEngineCluster(t, 2, opts, Config{
		HistoryEntries:     4,
		SeedRefreshEntries: 1 << 20, // reuse would kick in absent the retention gate
		retryBase:          time.Millisecond,
		retryCap:           2 * time.Millisecond,
		retryAttempts:      2,
	})
	e := lc.eng

	seedRound := func(round, from, to int) uint64 {
		lc.tr.Partition("f2")
		for i := from; i < to; i++ {
			if err := e.Put(rtPoint(i%40), uint64(100+i)); err != nil {
				lc.t.Fatal(err)
			}
		}
		lc.tr.Heal()
		for i := 0; i < 50; i++ {
			lc.g.Heartbeat()
			if st := lc.fs[1].Status(); int(st.Seeds) >= round && st.Applied == st.Last && lc.g.Lag()["f2"] == 0 {
				break
			}
		}
		st := lc.fs[1].Status()
		if int(st.Seeds) < round {
			lc.t.Fatalf("round %d: f2 not seeded (%+v)", round, st)
		}
		return st.Base
	}

	b1 := seedRound(1, 0, 30)
	b2 := seedRound(2, 30, 60)
	if b2 <= b1 {
		t.Fatalf("second seed reused a stale snapshot: base %d after %d", b2, b1)
	}
	want := stateOf(t, lc.c, e)
	assertSameState(t, lc.c, want, lc.fs[0].Engine(), "f1")
	assertSameState(t, lc.c, want, lc.fs[1].Engine(), "f2")
}
