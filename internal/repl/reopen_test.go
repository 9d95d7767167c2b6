package repl

import (
	"path/filepath"
	"testing"
	"time"

	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/vfs"
)

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
		engineOpts: rtEngOpts(), retryBase: time.Millisecond,
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

	hook := NewHook()
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
		engineOpts: rtEngOpts(), retryBase: time.Millisecond,
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
// the extreme, trimming every entry of the in-flight batch and
// acknowledging with no quorum check at all). The window is allowed to
// balloon for the batch's lifetime and snaps back afterwards.
func TestReplBatchLargerThanHistory(t *testing.T) {
	cl := newCluster(t, 2, Config{historyEntries: 4})
	e := cl.g.Engine()
	batch := make([]engine.BatchOp, 30)
	for i := range batch {
		batch[i] = engine.BatchOp{Key: rtKey(i), Payload: uint64(1000 + i)}
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
	if err := l.append([]Entry{{Index: 1, Epoch: 1, Batch: []byte{1}}}); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	if err := l.append([]Entry{{Index: 2, Epoch: 1, Batch: []byte{2}}}); err == nil {
		t.Fatal("append with a lost handle reported success")
	}
}
