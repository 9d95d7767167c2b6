package shard

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/geom"
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
		Engine: engine.Options{PageBytes: 192, FlushEntries: -1, SyncWrites: sync},
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

// TestPartialQuerySkipsFailingShard: a shard whose page reads fail fails
// a strict query, which hands back the caller's dst prefix unchanged, and
// is skipped by a partial one, which returns the prefix plus exactly
// every other shard's records. Shard 0 fails its first read. Shard 1, a
// later shard, serves every read but its last, so it has appended
// records into dst before its error and after shard 0's. The service
// caches no pages, so every query reads them. Every cell holds a record
// and the query is a vertical strip, which crosses each ring twice, so
// shard 1 reads its pages in several runs rather than one.
func TestPartialQuerySkipsFailingShard(t *testing.T) {
	inj := vfs.NewInjecting(vfs.OS{})
	s := sfOpen(t, t.TempDir(), inj, false)
	defer s.Close()
	for x := uint32(0); x < 32; x++ {
		for y := uint32(0); y < 32; y++ {
			if x%2 == 1 || y%2 == 1 { // sfFill writes the rest
				if err := s.Put([]uint32{x, y}, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	sfFill(t, s)
	strip := geom.Rect{Lo: geom.Point{12, 0}, Hi: geom.Point{19, 31}}
	ctx := context.Background()

	clean, st, err := s.QueryAppendContext(ctx, nil, strip, QueryPolicy{})
	if err != nil || len(clean) != 8*32 || st.Degraded {
		t.Fatalf("clean query: %d records (want the strip's 8x32), degraded=%v, err %v", len(clean), st.Degraded, err)
	}
	// Shard order is key order: shard i's records are one run of clean.
	byShard := map[int][]Record{}
	off := 0
	for _, ps := range st.PerShard {
		byShard[ps.Shard] = clean[off : off+ps.Results]
		off += ps.Results
	}
	prefix := []Record{{Point: geom.Point{7, 7}, Payload: 1}, {Point: geom.Point{9, 9}, Payload: 2}}
	withPrefix := func() []Record {
		dst := make([]Record, len(prefix))
		for i, r := range prefix {
			dst[i] = Record{Point: r.Point.Clone(), Payload: r.Payload}
		}
		return dst
	}

	for _, failing := range []int{0, 1} {
		t.Run(fmt.Sprintf("shard%d", failing), func(t *testing.T) {
			if len(byShard[failing]) == 0 {
				t.Fatalf("shard %d serves no records; the fixture cannot exercise partial results", failing)
			}
			// Count the shard's page reads in one query, then fail its
			// first (shard 0) or its last (shard 1).
			path := fmt.Sprintf("shard-%03d", failing)
			inj.SetFaults(vfs.Fault{Op: vfs.OpRead, Path: path})
			if _, _, err := s.Query(strip); err != nil {
				t.Fatal(err)
			}
			fault := vfs.Fault{Op: vfs.OpRead, Path: path, N: 1}
			if failing == 1 {
				if fault.N = inj.Matched(0); fault.N < 2 {
					t.Fatalf("shard 1 reads %d pages; the row needs a read that succeeds before the failing one", fault.N)
				}
			}

			// Strict policy: the shard failure fails the query, and the
			// caller gets its prefix back as it was.
			inj.SetFaults(fault)
			got, _, err := s.QueryAppendContext(ctx, withPrefix(), strip, QueryPolicy{})
			if !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("strict query over failing shard = %v, want the injected fault", err)
			}
			if !reflect.DeepEqual(got, prefix) {
				t.Fatalf("strict query returned %d records, want the %d-record prefix unchanged", len(got), len(prefix))
			}

			// Partial policy: the failing shard is skipped and reported.
			inj.SetFaults(fault)
			got, st, err := s.QueryAppendContext(ctx, withPrefix(), strip, QueryPolicy{Partial: true})
			if err != nil {
				t.Fatalf("partial query: %v", err)
			}
			if !st.Degraded || !reflect.DeepEqual(st.FailedShards, []int{failing}) {
				t.Fatalf("partial stats: degraded=%v failed=%v, want shard %d reported", st.Degraded, st.FailedShards, failing)
			}
			want := append([]Record(nil), prefix...)
			for _, ps := range st.PerShard {
				if ps.Shard == failing {
					t.Fatalf("failed shard present in PerShard breakdown: %+v", st.PerShard)
				}
			}
			for i := 0; i < len(s.engines); i++ {
				if i != failing {
					want = append(want, byShard[i]...)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("partial query returned %d records, want the prefix plus every other shard's: %d", len(got), len(want))
			}
			if st.Results != len(want)-len(prefix) {
				t.Fatalf("partial Results = %d, want %d appended records", st.Results, len(want)-len(prefix))
			}
		})
	}

	// All shards failing: partial cannot pretend an empty answer.
	inj.SetFaults(vfs.Fault{Op: vfs.OpRead, N: 1, Repeat: true})
	if _, _, err := s.QueryAppendContext(ctx, nil, strip, QueryPolicy{Partial: true}); err == nil {
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
