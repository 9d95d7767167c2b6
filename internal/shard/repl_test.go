package shard

import (
	"errors"
	"fmt"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/repl"
	"github.com/onioncurve/onion/internal/telemetry"
)

const srSide = 32

func testCurve(t testing.TB, side uint32) curve.Curve {
	t.Helper()
	o, err := core.NewOnion2D(side)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

// engState reads an engine's entire logical content as key → payload.
func engState(t testing.TB, c curve.Curve, e *engine.Engine) map[uint64]uint64 {
	t.Helper()
	recs, _, err := e.Query(c.Universe().Rect())
	if err != nil {
		t.Fatal(err)
	}
	m := make(map[uint64]uint64, len(recs))
	for _, rec := range recs {
		m[c.Index(rec.Point)] = rec.Payload
	}
	return m
}

// TestShardedReplication: a replicated sharded service converges every
// shard's replica set bit-identically, degrades only the shard that
// loses quorum, recovers it, and rolls replication telemetry up without
// double-counting (the aggregate equals the sum of the labeled series).
func TestShardedReplication(t *testing.T) {
	const shards, followersPer = 2, 2
	c := testCurve(t, srSide)
	lb := repl.NewLoopback()
	tr := repl.NewInjectingTransport(lb)
	dir := t.TempDir()

	peerIDs := make([][]string, shards)
	var followers []*repl.Follower
	for s := 0; s < shards; s++ {
		for f := 0; f < followersPer; f++ {
			id := fmt.Sprintf("s%d-f%d", s, f+1)
			fo, err := repl.OpenFollower(id, dir+"/"+id, c,
				repl.FollowerOptions{Engine: engine.Options{PageBytes: 384, FlushEntries: -1}})
			if err != nil {
				t.Fatal(err)
			}
			lb.Register(id, fo)
			followers = append(followers, fo)
			peerIDs[s] = append(peerIDs[s], id)
		}
	}
	defer func() {
		for _, fo := range followers {
			fo.Close() //nolint:errcheck
		}
	}()

	opts := manualShardOpts(shards)
	r, err := OpenReplicated(dir+"/service", c, opts, func(s int) repl.Config {
		return repl.Config{ID: fmt.Sprintf("s%d", s), Peers: peerIDs[s], Transport: tr}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close() //nolint:errcheck

	for i := 0; i < 80; i++ {
		p := geom.Point{uint32(i*7) % srSide, uint32(i*13+5) % srSide}
		if i%9 == 4 {
			if err := r.Delete(p); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if err := r.Put(p, uint64(5000+i)); err != nil {
			t.Fatal(err)
		}
	}
	r.Heartbeat()

	for s := 0; s < shards; s++ {
		want := engState(t, c, r.engines[s])
		for f := 0; f < followersPer; f++ {
			got := engState(t, c, followers[s*followersPer+f].Engine())
			if len(got) != len(want) {
				t.Fatalf("shard %d follower %d: %d records, want %d", s, f, len(got), len(want))
			}
			for k, v := range want {
				if got[k] != v {
					t.Fatalf("shard %d follower %d: key %d = %d, want %d", s, f, k, got[k], v)
				}
			}
		}
	}
	for key, lag := range r.Lag() {
		if lag != 0 {
			t.Fatalf("%s lag %d after heartbeat", key, lag)
		}
	}

	// Telemetry: the aggregate repl series must equal the sum of the
	// shard-labeled copies — the no-double-count contract.
	snap := r.TelemetrySnapshot()
	agg := snap.Counter("repl_batches_total")
	if agg == 0 {
		t.Fatal("repl_batches_total did not move")
	}
	var sum uint64
	for s := 0; s < shards; s++ {
		sum += snap.Counter(telemetry.WithLabel("repl_batches_total", "shard", fmt.Sprintf("%d", s)))
	}
	if agg != sum {
		t.Fatalf("aggregate repl_batches_total %d != labeled sum %d (double-count)", agg, sum)
	}

	// Quorum loss is per shard: cut shard 0's followers, a write routed
	// there degrades only shard 0; shard 1 keeps accepting.
	tr.Partition(peerIDs[0]...)
	var p0, p1 geom.Point
	found0, found1 := false, false
	for i := 0; i < 1024 && (!found0 || !found1); i++ {
		p := geom.Point{uint32(i) % srSide, uint32(i/srSide) % srSide}
		switch r.part.Of(c.Index(p)) {
		case 0:
			if !found0 {
				p0, found0 = p.Clone(), true
			}
		case 1:
			if !found1 {
				p1, found1 = p.Clone(), true
			}
		}
	}
	if !found0 || !found1 {
		t.Fatal("could not find points for both shards")
	}
	if err := r.Put(p0, 1); err == nil {
		t.Fatal("shard-0 write committed without quorum")
	}
	if err := r.Put(p1, 2); err != nil {
		t.Fatalf("shard-1 write should be unaffected: %v", err)
	}
	healths := r.Health()
	if healths[0].State != engine.ReadOnly {
		t.Fatalf("shard 0 health = %v, want ReadOnly", healths[0].State)
	}
	if healths[1].State != engine.Healthy {
		t.Fatalf("shard 1 health = %v, want Healthy", healths[1].State)
	}

	// Heal and recover: the degraded shard rejoins and converges.
	tr.Heal()
	if err := r.TryRecover(); err != nil {
		t.Fatal(err)
	}
	if err := r.Put(p0, 3); err != nil {
		t.Fatalf("shard-0 write after recovery: %v", err)
	}
	r.Heartbeat()
	for s := 0; s < shards; s++ {
		want := engState(t, c, r.engines[s])
		for f := 0; f < followersPer; f++ {
			got := engState(t, c, followers[s*followersPer+f].Engine())
			if len(got) != len(want) {
				t.Fatalf("shard %d follower %d after recovery: %d records, want %d", s, f, len(got), len(want))
			}
		}
	}
}

// TestShardedReplicationSeedsKeepNoArchive is the shape of a replicated
// service opened over a preloaded directory: every follower is seeded by
// snapshot at open, then writes flush on every shard. Seeds do not start
// a shard's WAL archive, so no leader shard directory holds archive/; a
// user snapshot of the service still starts one on every shard.
func TestShardedReplicationSeedsKeepNoArchive(t *testing.T) {
	const shards, followersPer = 2, 2
	c := testCurve(t, srSide)
	dir := t.TempDir()
	opts := manualShardOpts(shards)
	point := func(i int) geom.Point { return geom.Point{uint32(i*7) % srSide, uint32(i*13+5) % srSide} }
	put := func(s *Sharded, from, to int) {
		t.Helper()
		for i := from; i < to; i++ {
			if err := s.Put(point(i), uint64(5000+i)); err != nil {
				t.Fatal(err)
			}
		}
	}

	pre, err := Open(dir+"/service", c, opts)
	if err != nil {
		t.Fatal(err)
	}
	put(pre, 0, 60)
	if err := pre.Close(); err != nil {
		t.Fatal(err)
	}

	lb := repl.NewLoopback()
	peerIDs := make([][]string, shards)
	var followers []*repl.Follower
	defer func() {
		for _, fo := range followers {
			fo.Close() //nolint:errcheck
		}
	}()
	for s := 0; s < shards; s++ {
		for f := 0; f < followersPer; f++ {
			id := fmt.Sprintf("s%d-f%d", s, f+1)
			fo, err := repl.OpenFollower(id, dir+"/"+id, c,
				repl.FollowerOptions{Engine: engine.Options{PageBytes: 384, FlushEntries: -1}})
			if err != nil {
				t.Fatal(err)
			}
			lb.Register(id, fo)
			followers = append(followers, fo)
			peerIDs[s] = append(peerIDs[s], id)
		}
	}
	r, err := OpenReplicated(dir+"/service", c, opts, func(s int) repl.Config {
		return repl.Config{ID: fmt.Sprintf("s%d", s), Peers: peerIDs[s], Transport: lb}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close() //nolint:errcheck
	for round := 0; round < 3; round++ {
		put(r.Sharded, 60+40*round, 100+40*round)
		if err := r.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 30; i++ {
		r.Heartbeat()
		converged := true
		for _, lag := range r.Lag() {
			converged = converged && lag == 0
		}
		if converged {
			break
		}
	}
	for s := 0; s < shards; s++ {
		want := engState(t, c, r.engines[s])
		for f := 0; f < followersPer; f++ {
			fo := followers[s*followersPer+f]
			if st := fo.Status(); st.Seeds == 0 {
				t.Fatalf("shard %d follower %d was never seeded: %+v", s, f, st)
			}
			if got := engState(t, c, fo.Engine()); !maps.Equal(got, want) {
				t.Fatalf("shard %d follower %d: %d records, want %d", s, f, len(got), len(want))
			}
		}
		if _, err := os.Stat(filepath.Join(shardDir(dir+"/service", s), "archive")); !errors.Is(err, fs.ErrNotExist) {
			t.Fatalf("shard %d after seeds and flushes: archive/ stat = %v, want absent", s, err)
		}
	}

	if _, err := r.Snapshot(filepath.Join(t.TempDir(), "snap")); err != nil {
		t.Fatal(err)
	}
	for s := 0; s < shards; s++ {
		if _, err := os.Stat(filepath.Join(shardDir(dir+"/service", s), "archive")); err != nil {
			t.Fatalf("shard %d after a user snapshot: archive/ stat = %v, want present", s, err)
		}
	}
}
