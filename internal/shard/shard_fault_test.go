package shard

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/vfs"
)

// sfOpen opens a 4-shard service over side-32 Onion2D on fsys, with
// per-shard backgrounds disabled.
func sfOpen(t *testing.T, dir string, fsys vfs.FS, sync bool) *Sharded {
	t.Helper()
	o, err := core.NewOnion2D(32)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(dir, o, Options{
		Shards: 4,
		Engine: engine.Options{PageBytes: 192, FlushEntries: -1, CompactFanout: -1, SyncWrites: sync},
		FS:     fsys,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestManifestFaultMatrix enumerates every filesystem operation the
// MANIFEST tmp+rename write performs, fails (then crashes) each in
// turn, and asserts the invariant: the failed open errors out, and the
// next clean open never sees a half-written manifest — it either reads
// the complete one or atomically recreates it.
func TestManifestFaultMatrix(t *testing.T) {
	o, err := core.NewOnion2D(32)
	if err != nil {
		t.Fatal(err)
	}
	want := manifestBody(o, 4)

	// Enumeration pass: count every operation touching the manifest.
	inj := vfs.NewInjecting(vfs.OS{})
	inj.SetFaults(vfs.Fault{Path: manifestName})
	s := sfOpen(t, t.TempDir(), inj, false)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	total := inj.Matched(0)
	if total < 5 {
		t.Fatalf("manifest write performs %d operations, expected at least create+write+sync+rename+syncdir", total)
	}

	for _, kind := range []vfs.Kind{vfs.KindFail, vfs.KindCrash} {
		for n := int64(1); n <= total; n++ {
			t.Run(fmt.Sprintf("%s-n%d", kind, n), func(t *testing.T) {
				dir := t.TempDir()
				ifs := vfs.NewInjecting(vfs.OS{})
				ifs.SetFaults(vfs.Fault{Path: manifestName, N: n, Kind: kind})
				if _, err := Open(dir, o, Options{Shards: 4, FS: ifs}); err == nil {
					t.Fatalf("open with manifest fault %d/%d succeeded", n, total)
				}
				// Clean reopen: the manifest is whole, the service works.
				s := sfOpen(t, dir, vfs.OS{}, false)
				defer s.Close()
				got, err := vfs.ReadFile(vfs.OS{}, dir+"/"+manifestName)
				if err != nil {
					t.Fatalf("manifest unreadable after recovery: %v", err)
				}
				if string(got) != want {
					t.Fatalf("manifest after recovery = %q, want %q", got, want)
				}
				if err := s.Put(o.Universe().Rect().Lo, 1); err != nil {
					t.Fatal(err)
				}
				if _, _, err := s.Query(o.Universe().Rect()); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}

// sfFill loads one record per cell of a 32x32 grid and flushes, so
// every query must read segment pages (and therefore hits injected
// read faults).
func sfFill(t *testing.T, s *Sharded) int {
	t.Helper()
	n := 0
	for x := uint32(0); x < 32; x += 2 {
		for y := uint32(0); y < 32; y += 2 {
			if err := s.Put([]uint32{x, y}, uint64(x)<<16|uint64(y)); err != nil {
				t.Fatal(err)
			}
			n++
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	return n
}

func TestPartialQuerySkipsFailingShard(t *testing.T) {
	o, err := core.NewOnion2D(32)
	if err != nil {
		t.Fatal(err)
	}
	inj := vfs.NewInjecting(vfs.OS{})
	s := sfOpen(t, t.TempDir(), inj, false)
	defer s.Close()
	n := sfFill(t, s)
	full := o.Universe().Rect()

	recs, st, err := s.QueryAppendContext(context.Background(), nil, full, QueryPolicy{})
	if err != nil || len(recs) != n || st.Degraded {
		t.Fatalf("clean query: %d records (want %d), degraded=%v, err %v", len(recs), n, st.Degraded, err)
	}
	shard0 := 0
	for _, ps := range st.PerShard {
		if ps.Shard == 0 {
			shard0 = ps.Results
		}
	}
	if shard0 == 0 {
		t.Fatal("shard 0 serves no records; the fixture cannot exercise partial results")
	}

	// Every read in shard 0 fails from here on.
	inj.SetFaults(vfs.Fault{Op: vfs.OpRead, Path: "shard-000", N: 1, Repeat: true})

	// Strict policy: the shard failure fails the query.
	if _, _, err := s.QueryAppendContext(context.Background(), nil, full, QueryPolicy{}); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("strict query over failing shard = %v, want the injected fault", err)
	}

	// Partial policy: the failing shard is skipped and reported.
	recs, st, err = s.QueryAppendContext(context.Background(), nil, full, QueryPolicy{Partial: true})
	if err != nil {
		t.Fatalf("partial query: %v", err)
	}
	if !st.Degraded || len(st.FailedShards) != 1 || st.FailedShards[0] != 0 {
		t.Fatalf("partial stats: degraded=%v failed=%v, want shard 0 reported", st.Degraded, st.FailedShards)
	}
	if len(recs) != n-shard0 {
		t.Fatalf("partial query returned %d records, want %d (all but shard 0's %d)", len(recs), n, shard0)
	}
	for _, ps := range st.PerShard {
		if ps.Shard == 0 {
			t.Fatalf("failed shard present in PerShard breakdown: %+v", st.PerShard)
		}
	}

	// All shards failing: partial cannot pretend an empty answer.
	inj.SetFaults(vfs.Fault{Op: vfs.OpRead, N: 1, Repeat: true})
	if _, _, err := s.QueryAppendContext(context.Background(), nil, full, QueryPolicy{Partial: true}); err == nil {
		t.Fatal("partial query with every shard failing returned success")
	}
}

func TestReadOnlyShardKeepsOthersServing(t *testing.T) {
	o, err := core.NewOnion2D(32)
	if err != nil {
		t.Fatal(err)
	}
	inj := vfs.NewInjecting(vfs.OS{})
	s := sfOpen(t, t.TempDir(), inj, true)
	defer s.Close()
	n := sfFill(t, s)

	// Shard 0's WAL can no longer fsync: its next synchronous write
	// fails and latches the shard ReadOnly. The other shards are
	// untouched.
	inj.SetFaults(vfs.Fault{Op: vfs.OpSync, Path: "shard-000", N: 1, Repeat: true})
	var roErr error
	wrote := 0
	for x := uint32(1); x < 32 && roErr == nil; x += 2 {
		for y := uint32(1); y < 32; y += 2 {
			if err := s.Put([]uint32{x, y}, 7); err != nil {
				roErr = err
				break
			}
			wrote++
		}
	}
	if !errors.Is(roErr, engine.ErrReadOnly) {
		t.Fatalf("no write hit the ReadOnly shard (wrote %d, err %v)", wrote, roErr)
	}

	healths := s.Health()
	ro := 0
	for _, h := range healths {
		switch {
		case h.Shard == 0 && h.State == engine.ReadOnly:
			ro++
		case h.Shard != 0 && h.State != engine.Healthy:
			t.Fatalf("shard %d degraded to %v: %v", h.Shard, h.State, h.Err)
		}
	}
	if ro != 1 {
		t.Fatalf("per-shard health %+v, want exactly shard 0 ReadOnly", healths)
	}

	// Writes routed to healthy shards keep acking...
	healthyWrites := 0
	for x := uint32(1); x < 32; x += 2 {
		for y := uint32(1); y < 32; y += 2 {
			err := s.Put([]uint32{x, y}, 9)
			if err == nil {
				healthyWrites++
			} else if !errors.Is(err, engine.ErrReadOnly) {
				t.Fatalf("write error %v, want nil or ErrReadOnly", err)
			}
		}
	}
	if healthyWrites == 0 {
		t.Fatal("every shard rejected writes; only shard 0 should be ReadOnly")
	}
	// ...and strict queries still serve every previously flushed record.
	recs, _, err := s.Query(o.Universe().Rect())
	if err != nil {
		t.Fatalf("query with a ReadOnly shard: %v", err)
	}
	if len(recs) < n {
		t.Fatalf("query returned %d records, want at least the %d flushed", len(recs), n)
	}
}

func TestShardQueryContextCanceled(t *testing.T) {
	o, err := core.NewOnion2D(32)
	if err != nil {
		t.Fatal(err)
	}
	s := sfOpen(t, t.TempDir(), vfs.OS{}, false)
	defer s.Close()
	sfFill(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	// Cancellation is never masked — not even by the partial policy.
	for _, pol := range []QueryPolicy{{}, {Partial: true}} {
		if _, _, err := s.QueryAppendContext(ctx, nil, o.Universe().Rect(), pol); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled query (partial=%v) = %v, want context.Canceled", pol.Partial, err)
		}
	}
}
