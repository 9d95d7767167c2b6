package shard

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/onioncurve/onion/internal/baseline"
	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/curvetest"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/pagedstore"
	"github.com/onioncurve/onion/internal/partition"
	"github.com/onioncurve/onion/internal/ranges"
)

// manualShardOpts disables background flush/compaction in every shard so
// tests control the lifecycle explicitly.
func manualShardOpts(k int) Options {
	return Options{
		Shards: k,
		Engine: engine.Options{PageBytes: 384, FlushEntries: -1},
		// A deliberately tiny shared page cache (16 pages across all
		// shards) so the cross-checks run under constant eviction
		// pressure: the logical stat contracts must hold bit-identically
		// with caching and segment-footer pruning active.
		CacheBytes: 16 * 384,
	}
}

// randomRect delegates to the shared curvetest helper.
var randomRect = curvetest.RandomRect

// logicalEqual compares two engine stat sets on the bit-identical
// logical contract, ignoring the physical IO counters — those depend on
// cache state, which the sharded and reference engines do not share.
func logicalEqual(a, b engine.Stats) bool {
	a.IO, b.IO = pagedstore.IOStats{}, pagedstore.IOStats{}
	return a == b
}

// putDeleter is the write surface shared by *engine.Engine and *Sharded,
// so the same operation log can drive both sides of the cross-check.
type putDeleter interface {
	Put(geom.Point, uint64) error
	Delete(geom.Point) error
}

// ownerPrograms runs nWriters concurrent goroutines, each owning the
// disjoint subset of cells whose curve key is congruent to its id modulo
// nWriters, and applying a seeded random put/delete program to them — so
// the final per-cell state is deterministic regardless of scheduling, and
// replaying the same seeds against another store yields the same state.
func ownerPrograms(t *testing.T, w putDeleter, c curve.Curve, seed int64, nWriters, steps int) map[uint64]*pagedstore.Record {
	t.Helper()
	u := c.Universe()
	d := u.Dims()
	var wg sync.WaitGroup
	results := make([]map[uint64]*pagedstore.Record, nWriters)
	errs := make([]error, nWriters)
	for g := 0; g < nWriters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed + int64(g)))
			final := make(map[uint64]*pagedstore.Record)
			for s := 0; s < steps; s++ {
				key := uint64(rng.Int63n(int64(u.Size())))
				key -= key % uint64(nWriters)
				key += uint64(g)
				if key >= u.Size() {
					continue
				}
				pt := c.Coords(key, make(geom.Point, d))
				if rng.Intn(4) == 0 {
					if err := w.Delete(pt); err != nil {
						errs[g] = err
						return
					}
					final[key] = nil
				} else {
					payload := rng.Uint64()
					if err := w.Put(pt, payload); err != nil {
						errs[g] = err
						return
					}
					final[key] = &pagedstore.Record{Point: pt.Clone(), Payload: payload}
				}
			}
			results[g] = final
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("writer %d: %v", g, err)
		}
	}
	finals := make(map[uint64]*pagedstore.Record)
	for _, m := range results {
		for k, r := range m {
			finals[k] = r
		}
	}
	return finals
}

func mergeFinals(survivors map[uint64]pagedstore.Record, finals map[uint64]*pagedstore.Record) {
	for k, r := range finals {
		if r != nil {
			survivors[k] = *r
		} else {
			delete(survivors, k)
		}
	}
}

func equalRecords(t *testing.T, r geom.Rect, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%v: %d records, want %d", r, len(got), len(want))
	}
	for i := range want {
		if !got[i].Point.Equal(want[i].Point) || got[i].Payload != want[i].Payload {
			t.Fatalf("%v: record %d = %v/%d, want %v/%d",
				r, i, got[i].Point, got[i].Payload, want[i].Point, want[i].Payload)
		}
	}
}

// cursorStats drives a pagedstore cursor over a sub-plan exactly the way
// a fully compacted shard engine does, returning the surviving record
// count and the physical stats.
func cursorStats(t *testing.T, st *pagedstore.Store, krs []curve.KeyRange) (int, pagedstore.Stats) {
	t.Helper()
	cur := st.NewCursor()
	n := 0
	var e pagedstore.Entry
	cur.Plan(krs)
	for cur.NextRange() {
		for {
			ok, err := cur.NextInto(&e)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if !e.Marked {
				n++
			}
		}
	}
	return n, cur.Stats()
}

// TestShardedCrossCheck is the acceptance criterion: under concurrent
// Put/Delete/Query churn, a sharded engine must answer every rectangle
// with records bit-identical to a single engine fed the same operation
// log, for shard counts 1, 2, 3 and 8; the aggregate stats must satisfy
// the documented summation contract (Planned, Results and MemEntries
// exactly equal to the single engine; with one shard the entire Stats is
// bit-identical); and after full compaction every per-shard counter must
// be bit-identical to a reference store holding exactly that shard's
// records executing the shard-restricted sub-plan.
func TestShardedCrossCheck(t *testing.T) {
	curves := []struct {
		name string
		mk   func() (curve.Curve, error)
	}{
		{"onion2d", func() (curve.Curve, error) { return core.NewOnion2D(32) }},
		{"onion3d", func() (curve.Curve, error) { return core.NewOnion3D(16) }},
		{"hilbert", func() (curve.Curve, error) { return baseline.NewHilbert(2, 32) }},
	}
	for ci, tc := range curves {
		for _, k := range []int{1, 2, 3, 8} {
			t.Run(tc.name+"/k="+string(rune('0'+k)), func(t *testing.T) {
				c, err := tc.mk()
				if err != nil {
					t.Fatal(err)
				}
				s, err := Open(t.TempDir(), c, manualShardOpts(k))
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				single, err := engine.Open(t.TempDir(), c, manualShardOpts(k).Engine)
				if err != nil {
					t.Fatal(err)
				}
				defer single.Close()

				// Identical operation logs: the ownership programs are
				// deterministic per seed, so replaying the same seeds on
				// both stores converges to the same per-cell state. A
				// concurrent reader hammers the sharded side meanwhile.
				stop := make(chan struct{})
				var readers sync.WaitGroup
				readers.Add(1)
				go func() {
					defer readers.Done()
					rng := rand.New(rand.NewSource(int64(999)))
					for {
						select {
						case <-stop:
							return
						default:
						}
						// No yield: on GOMAXPROCS=1 this zero-think-time loop
						// must not starve the writers (a CI step runs it so).
						if _, _, err := s.Query(randomRect(rng, c.Universe())); err != nil {
							t.Error(err)
							return
						}
					}
				}()
				seed1, seed2 := int64(3000+10*ci+k), int64(4000+10*ci+k)
				survivors := make(map[uint64]pagedstore.Record)
				mergeFinals(survivors, ownerPrograms(t, s, c, seed1, 4, 500))
				ownerPrograms(t, single, c, seed1, 4, 500)
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := single.Flush(); err != nil {
					t.Fatal(err)
				}
				mergeFinals(survivors, ownerPrograms(t, s, c, seed2, 4, 250))
				ownerPrograms(t, single, c, seed2, 4, 250)
				close(stop)
				readers.Wait()
				if t.Failed() {
					return
				}

				rng := rand.New(rand.NewSource(int64(17*ci + k)))
				// Phase A: mixed memtable + segment state.
				for trial := 0; trial < 20; trial++ {
					r := randomRect(rng, c.Universe())
					got, gst, err := s.Query(r)
					if err != nil {
						t.Fatal(err)
					}
					want, wst, err := single.Query(r)
					if err != nil {
						t.Fatal(err)
					}
					equalRecords(t, r, got, want)
					if gst.Planned != wst.Planned || gst.Results != wst.Results ||
						gst.MemEntries != wst.MemEntries {
						t.Fatalf("%v: aggregate %+v vs single %+v", r, gst.Stats, wst)
					}
					if k == 1 && !logicalEqual(gst.Stats, wst) {
						t.Fatalf("%v: single-shard stats %+v != engine stats %+v", r, gst.Stats, wst)
					}
				}

				// Phase B: fully compacted. Each shard is now one segment,
				// bit-identical to a bulk-loaded store of its records.
				if err := s.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := s.Compact(); err != nil {
					t.Fatal(err)
				}
				if err := single.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := single.Compact(); err != nil {
					t.Fatal(err)
				}
				refs := make([]*pagedstore.Store, k)
				refDir := t.TempDir()
				for i := 0; i < k; i++ {
					var recs []pagedstore.Record
					for key, rec := range survivors {
						if s.part.Of(key) == i {
							recs = append(recs, rec)
						}
					}
					path := filepath.Join(refDir, "ref-"+string(rune('0'+i))+".pst")
					if err := pagedstore.Write(path, c, recs, 384); err != nil {
						t.Fatal(err)
					}
					if refs[i], err = pagedstore.Open(path, c); err != nil {
						t.Fatal(err)
					}
					defer refs[i].Close()
				}
				for trial := 0; trial < 20; trial++ {
					r := randomRect(rng, c.Universe())
					got, gst, err := s.Query(r)
					if err != nil {
						t.Fatal(err)
					}
					want, wst, err := single.Query(r)
					if err != nil {
						t.Fatal(err)
					}
					equalRecords(t, r, got, want)
					if gst.Planned != wst.Planned || gst.Results != wst.Results {
						t.Fatalf("%v: aggregate %+v vs single %+v", r, gst.Stats, wst)
					}
					if k == 1 && !logicalEqual(gst.Stats, wst) {
						t.Fatalf("%v: single-shard stats %+v != engine stats %+v", r, gst.Stats, wst)
					}
					// Per-shard counters against the per-shard reference
					// stores: the heart of the seek-accounting contract.
					plan, err := ranges.Decompose(c, r, 0)
					if err != nil {
						t.Fatal(err)
					}
					parts := splitPlan(s.part, plan)
					if len(parts) != gst.ShardsTouched || len(parts) != len(gst.PerShard) {
						t.Fatalf("%v: %d parts, stats report %d/%d",
							r, len(parts), gst.ShardsTouched, len(gst.PerShard))
					}
					var sumSeeks int
					for pi, p := range parts {
						ps := gst.PerShard[pi]
						if ps.Shard != p.shard {
							t.Fatalf("%v: PerShard[%d] is shard %d, want %d", r, pi, ps.Shard, p.shard)
						}
						refN, refSt := cursorStats(t, refs[p.shard], p.krs)
						if ps.Results != refN || ps.Seeks != refSt.Seeks ||
							ps.PagesRead != refSt.PagesRead ||
							ps.RecordsScanned != refSt.RecordsScanned {
							t.Fatalf("%v shard %d: stats %+v, reference %d records %+v",
								r, p.shard, ps.Stats, refN, refSt)
						}
						sumSeeks += refSt.Seeks
					}
					if gst.Seeks != sumSeeks {
						t.Fatalf("%v: aggregate seeks %d != per-shard sum %d", r, gst.Seeks, sumSeeks)
					}
				}
			})
		}
	}
}

// copyTree snapshots a sharded engine directory (one level of shard
// subdirectories) file by file.
func copyTree(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if ent.IsDir() {
			copyTree(t, filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name()))
			continue
		}
		in, err := os.Open(filepath.Join(src, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out, err := os.Create(filepath.Join(dst, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := io.Copy(out, in); err != nil {
			t.Fatal(err)
		}
		in.Close()
		if err := out.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// applySerial applies a deterministic serial put/delete program and
// returns the expected survivor set.
func applySerial(t *testing.T, w putDeleter, c curve.Curve, seed int64, steps int, survivors map[uint64]uint64) {
	t.Helper()
	u := c.Universe()
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < steps; i++ {
		key := uint64(rng.Int63n(int64(u.Size())))
		pt := c.Coords(key, make(geom.Point, u.Dims()))
		if rng.Intn(5) == 0 {
			if err := w.Delete(pt); err != nil {
				t.Fatal(err)
			}
			delete(survivors, key)
		} else {
			payload := rng.Uint64()
			if err := w.Put(pt, payload); err != nil {
				t.Fatal(err)
			}
			survivors[key] = payload
		}
	}
}

// verifyShards checks, shard by shard, that each shard engine holds
// exactly the survivors whose keys it owns — both that a recovered shard
// lost nothing acknowledged and that the other shards are untouched.
func verifyShards(t *testing.T, s *Sharded, c curve.Curve, survivors map[uint64]uint64) {
	t.Helper()
	for i, e := range s.engines {
		got, _, err := e.Query(c.Universe().Rect())
		if err != nil {
			t.Fatalf("shard %d: %v", i, err)
		}
		want := make(map[uint64]uint64)
		for key, payload := range survivors {
			if s.part.Of(key) == i {
				want[key] = payload
			}
		}
		if len(got) != len(want) {
			t.Fatalf("shard %d: %d records, want %d", i, len(got), len(want))
		}
		for _, rec := range got {
			key := c.Index(rec.Point)
			if p, ok := want[key]; !ok || p != rec.Payload {
				t.Fatalf("shard %d: unexpected record %v/%d", i, rec.Point, rec.Payload)
			}
		}
	}
}

// TestShardedCrashRecoveryMatrix kills one shard at three points of its
// write path — after WAL appends, mid-flush (orphaned segment temp file),
// and mid-compaction-install (output and inputs both on disk) — then
// reopens the sharded engine and verifies that no acknowledged write is
// lost anywhere and the undamaged shards are untouched.
func TestShardedCrashRecoveryMatrix(t *testing.T) {
	c, err := core.NewOnion2D(32)
	if err != nil {
		t.Fatal(err)
	}
	const k = 3
	const victim = 1
	dir := t.TempDir()
	opts := manualShardOpts(k)
	opts.Engine.SyncWrites = true // every write below is acknowledged durable
	s, err := Open(dir, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	survivors := make(map[uint64]uint64)
	applySerial(t, s, c, 100, 400, survivors)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	applySerial(t, s, c, 101, 200, survivors)
	// Live snapshot: every shard holds one segment plus a WAL with the
	// second round — the state an abrupt kill would leave.
	live := t.TempDir()
	copyTree(t, dir, live)
	// Build the compaction snapshots: two segments per shard, then the
	// compacted state.
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	pre := t.TempDir()
	copyTree(t, dir, pre)
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	reopenAndVerify := func(t *testing.T, crash string) {
		re, err := Open(crash, c, manualShardOpts(k))
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		verifyShards(t, re, c, survivors)
		// End to end through the router too.
		got, _, err := re.Query(c.Universe().Rect())
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(survivors) {
			t.Fatalf("router sees %d records, want %d", len(got), len(survivors))
		}
	}

	t.Run("wal-torn-tail", func(t *testing.T) {
		// Kill after WAL append: the victim's WAL ends in a torn frame
		// from an in-flight unacknowledged write.
		crash := t.TempDir()
		copyTree(t, live, crash)
		wals, err := filepath.Glob(filepath.Join(shardDir(crash, victim), "wal-*.log"))
		if err != nil || len(wals) != 1 {
			t.Fatalf("wals %v err %v", wals, err)
		}
		data, err := os.ReadFile(wals[0])
		if err != nil {
			t.Fatal(err)
		}
		torn := append(data, data[:9]...)
		torn = append(torn, 0xde, 0xad, 0xbe, 0xef)
		if err := os.WriteFile(wals[0], torn, 0o644); err != nil {
			t.Fatal(err)
		}
		reopenAndVerify(t, crash)
	})

	t.Run("flush-crash", func(t *testing.T) {
		// Kill during flush: the segment was half-written to its temp
		// name, the WAL not yet retired. Recovery must ignore the temp
		// file and replay the WAL.
		crash := t.TempDir()
		copyTree(t, live, crash)
		orphan := filepath.Join(shardDir(crash, victim), "seg-000000000099-000000000099-000.pst.tmp")
		if err := os.WriteFile(orphan, []byte("partial segment write"), 0o644); err != nil {
			t.Fatal(err)
		}
		reopenAndVerify(t, crash)
		if _, err := os.Stat(orphan); err == nil {
			// Not required to be deleted, but must never be adopted; the
			// stat is informational either way.
			t.Log("orphaned temp segment still present (ignored)")
		}
	})

	t.Run("compaction-install-crash", func(t *testing.T) {
		// Kill between installing the compacted segment and deleting its
		// inputs: both generations coexist in the victim shard.
		crash := t.TempDir()
		copyTree(t, dir, crash)
		preSegs, err := filepath.Glob(filepath.Join(shardDir(pre, victim), "seg-*.pst"))
		if err != nil || len(preSegs) < 2 {
			t.Fatalf("pre-compaction segments %v err %v", preSegs, err)
		}
		for _, p := range preSegs {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			dst := filepath.Join(shardDir(crash, victim), filepath.Base(p))
			if _, err := os.Stat(dst); err == nil {
				continue // the compacted output keeps a colliding name only on epoch bumps
			}
			if err := os.WriteFile(dst, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		reopenAndVerify(t, crash)
	})
}

func TestShardedReopenAndManifest(t *testing.T) {
	c, err := core.NewOnion2D(16)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := Open(dir, c, manualShardOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	survivors := make(map[uint64]uint64)
	applySerial(t, s, c, 7, 120, survivors)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Reopening with a different shard count must refuse: the records
	// already live in the partition they were written under.
	if _, err := Open(dir, c, manualShardOpts(3)); !errors.Is(err, ErrManifest) {
		t.Fatalf("shard count change: %v", err)
	}
	// A different curve must refuse too.
	h, err := baseline.NewHilbert(2, 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, h, manualShardOpts(2)); !errors.Is(err, ErrManifest) {
		t.Fatalf("curve change: %v", err)
	}
	// The matching configuration reopens with all data.
	s2, err := Open(dir, c, manualShardOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	verifyShards(t, s2, c, survivors)

	// A curve variant sharing name, dims and side but not the bijection —
	// an Onion3D segment permutation — must be caught by the manifest's
	// mapping fingerprint, not silently misroute every stored key.
	o3, err := core.NewOnion3D(8)
	if err != nil {
		t.Fatal(err)
	}
	dir3 := t.TempDir()
	s3, err := Open(dir3, o3, manualShardOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s3.Close(); err != nil {
		t.Fatal(err)
	}
	perm, err := core.NewOnion3DWithSegmentOrder(8, [10]int{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir3, perm, manualShardOpts(2)); !errors.Is(err, ErrManifest) {
		t.Fatalf("segment-permutation change: %v", err)
	}
}

func TestShardedBudgetAndErrors(t *testing.T) {
	c, err := core.NewOnion2D(16)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(t.TempDir(), c, manualShardOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Put(geom.Point{3, 3}, 1); err != nil {
		t.Fatal(err)
	}
	one := geom.Rect{Lo: geom.Point{3, 3}, Hi: geom.Point{3, 3}}
	if _, _, err := s.Query(one); err != nil {
		t.Fatal(err)
	}
	// Writes outside the universe are engine.ErrPoint, like the engine.
	if err := s.Put(geom.Point{99, 0}, 1); !errors.Is(err, engine.ErrPoint) {
		t.Fatalf("out-of-universe put: %v", err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(geom.Point{1, 1}, 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("put after close: %v", err)
	}
	if _, _, err := s.Query(one); !errors.Is(err, ErrClosed) {
		t.Fatalf("query after close: %v", err)
	}
	if err := s.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second close: %v", err)
	}
}

// TestShardedAdmission drives the router with concurrent queries beside
// concurrent writers and background flushes and compactions; under -race
// this is the router's concurrency test.
func TestShardedAdmission(t *testing.T) {
	c, err := core.NewOnion2D(32)
	if err != nil {
		t.Fatal(err)
	}
	const flushEntries = 100
	opts := Options{
		Shards: 4,
		Engine: engine.Options{PageBytes: 384, FlushEntries: flushEntries},
	}
	s, err := Open(t.TempDir(), c, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(300 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := s.Query(randomRect(rng, c.Universe())); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	survivors := make(map[uint64]pagedstore.Record)
	mergeFinals(survivors, ownerPrograms(t, s, c, 41, 4, 1200))
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}
	// The churn may end before any shard flushed a run of the default
	// fanout: FlushEntries triggers a background flush, it does not bound
	// the memtable. So write on in rounds of flushEntries distinct keys
	// per shard, each ended by every shard's next background flush. The
	// rounds add segments of 100 to 256 records to each shard (the first
	// may carry churn leftovers), and four such in a row are a run. Stop
	// at the first background compaction. A round's writes ring each
	// shard's flush doorbell, so its flushes come by construction: the
	// wait has no deadline and fails only on a background error.
	for round := uint64(0); s.Stats().Compactions == 0; round++ {
		if round == 16 {
			t.Fatal("no background compaction after 16 rounds of flushes")
		}
		before := s.Stats().PerShard
		for i := range before {
			kr, _ := s.part.Interval(i)
			for j := uint64(0); j < flushEntries; j++ {
				key := kr.Lo + (round*flushEntries+j)%kr.Cells()
				pt := c.Coords(key, make(geom.Point, 2))
				payload := round<<32 | key
				if err := s.Put(pt, payload); err != nil {
					t.Fatal(err)
				}
				survivors[key] = pagedstore.Record{Point: pt, Payload: payload}
			}
		}
		for i := range before {
			for ; s.Stats().PerShard[i].Flushes == before[i].Flushes; time.Sleep(time.Millisecond) {
				if err := s.BackgroundErr(); err != nil {
					t.Fatalf("shard %d, round %d: %v", i, round, err)
				}
			}
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	got, _, err := s.Query(c.Universe().Rect())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(survivors) {
		t.Fatalf("%d records after churn, want %d", len(got), len(survivors))
	}
	for _, rec := range got {
		if survivors[c.Index(rec.Point)].Payload != rec.Payload {
			t.Fatalf("record %v/%d diverges", rec.Point, rec.Payload)
		}
	}
	es := s.Stats()
	if es.Flushes == 0 {
		t.Error("automatic per-shard flush never ran")
	}
	if len(es.PerShard) != 4 {
		t.Fatalf("stats for %d shards, want 4", len(es.PerShard))
	}
}

// shardPlan is the part of a query plan one shard executes: the plan's
// ranges clipped to the shard's key interval, still sorted and disjoint.
type shardPlan struct {
	shard int
	krs   []curve.KeyRange
}

// splitPlan is the materialized form of splitPlanFlat: each touched
// shard's sub-plan as an owned slice, in ascending shard order — what the
// cross-checks and the fuzzer compare against.
func splitPlan(part *partition.Partitioner, plan []curve.KeyRange) []shardPlan {
	flat, parts := splitPlanFlat(part, plan, nil, nil)
	out := make([]shardPlan, len(parts))
	for i, p := range parts {
		out[i] = shardPlan{shard: p.shard, krs: append([]curve.KeyRange{}, flat[p.start:p.end]...)}
	}
	return out
}

func TestSplitPlan(t *testing.T) {
	c, err := core.NewOnion2D(16) // 256 keys
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Uniform(c, 4) // bounds 0,64,128,192,256
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		plan []curve.KeyRange
		want []shardPlan
	}{
		{nil, nil},
		{
			[]curve.KeyRange{{Lo: 3, Hi: 9}},
			[]shardPlan{{0, []curve.KeyRange{{Lo: 3, Hi: 9}}}},
		},
		{
			// One range spanning every shard.
			[]curve.KeyRange{{Lo: 0, Hi: 255}},
			[]shardPlan{
				{0, []curve.KeyRange{{Lo: 0, Hi: 63}}},
				{1, []curve.KeyRange{{Lo: 64, Hi: 127}}},
				{2, []curve.KeyRange{{Lo: 128, Hi: 191}}},
				{3, []curve.KeyRange{{Lo: 192, Hi: 255}}},
			},
		},
		{
			// Two ranges landing in the same shard merge into one sub-plan.
			[]curve.KeyRange{{Lo: 10, Hi: 20}, {Lo: 30, Hi: 70}, {Lo: 80, Hi: 90}},
			[]shardPlan{
				{0, []curve.KeyRange{{Lo: 10, Hi: 20}, {Lo: 30, Hi: 63}}},
				{1, []curve.KeyRange{{Lo: 64, Hi: 70}, {Lo: 80, Hi: 90}}},
			},
		},
		{
			// Boundary-exact ranges.
			[]curve.KeyRange{{Lo: 63, Hi: 64}, {Lo: 191, Hi: 192}},
			[]shardPlan{
				{0, []curve.KeyRange{{Lo: 63, Hi: 63}}},
				{1, []curve.KeyRange{{Lo: 64, Hi: 64}}},
				{2, []curve.KeyRange{{Lo: 191, Hi: 191}}},
				{3, []curve.KeyRange{{Lo: 192, Hi: 192}}},
			},
		},
	}
	for i, tc := range cases {
		got := splitPlan(part, tc.plan)
		if len(got) != len(tc.want) {
			t.Fatalf("case %d: %v, want %v", i, got, tc.want)
		}
		for j := range tc.want {
			if got[j].shard != tc.want[j].shard {
				t.Fatalf("case %d part %d: shard %d, want %d", i, j, got[j].shard, tc.want[j].shard)
			}
			if len(got[j].krs) != len(tc.want[j].krs) {
				t.Fatalf("case %d part %d: %v, want %v", i, j, got[j].krs, tc.want[j].krs)
			}
			for m := range tc.want[j].krs {
				if got[j].krs[m] != tc.want[j].krs[m] {
					t.Fatalf("case %d part %d: %v, want %v", i, j, got[j].krs, tc.want[j].krs)
				}
			}
		}
	}
	// Skewed quantile partitions leave empty shards; splitPlan must route
	// around them (every key still belongs to a non-empty shard).
	skew := make([]uint64, 0, 64)
	for i := 0; i < 64; i++ {
		skew = append(skew, uint64(i)) // all sample keys in [0,64)
	}
	bw, err := partition.ByWeight(c, skew, 5)
	if err != nil {
		t.Fatal(err)
	}
	parts := splitPlan(bw, []curve.KeyRange{{Lo: 0, Hi: 255}})
	var total uint64
	for _, p := range parts {
		iv, ok := bw.Interval(p.shard)
		if !ok {
			t.Fatalf("empty shard %d received work", p.shard)
		}
		for _, kr := range p.krs {
			if kr.Lo < iv.Lo || kr.Hi > iv.Hi {
				t.Fatalf("shard %d: %v outside interval %v", p.shard, kr, iv)
			}
			total += kr.Cells()
		}
	}
	if total != 256 {
		t.Fatalf("skewed split covers %d keys, want 256", total)
	}
}

func TestManifestBody(t *testing.T) {
	c, err := core.NewOnion2D(16)
	if err != nil {
		t.Fatal(err)
	}
	body := manifest(curve.IdentityOf(c), 4)
	for _, want := range []string{"onion-sharded v2", "shards 4", "dims 2", "side 16", "fingerprint "} {
		if !strings.Contains(body, want) {
			t.Fatalf("manifest %q missing %q", body, want)
		}
	}
}

// v1Manifest is a MANIFEST in the v1 format earlier releases wrote for
// an Onion2D of side 32 over four shards: name, dims, side and the cells
// at eight keys, no fingerprint.
const v1Manifest = "onion-sharded v1\nshards 4\ncurve onion\ndims 2\nside 32\n" +
	"probe (0,0) (23,1) (29,27) (3,13) (24,26) (24,20) (9,13) (15,16)\n"

// TestV1ManifestIsRefused: a v1 MANIFEST records no curve fingerprint,
// and its eight-key probe cannot tell some curves of one name apart, so
// it is refused under any curve, its own included (ErrManifest wrapping
// curve.ErrBadIdentity). The refused open writes nothing: the manifest
// is not rewritten and no shard directory is created.
func TestV1ManifestIsRefused(t *testing.T) {
	onion2d, _ := core.NewOnion2D(32)
	dir := t.TempDir()
	path := filepath.Join(dir, manifestName)
	if err := os.WriteFile(path, []byte(v1Manifest), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := Open(dir, onion2d, manualShardOpts(4))
	if !errors.Is(err, ErrManifest) || !errors.Is(err, curve.ErrBadIdentity) {
		t.Fatalf("v1 manifest under its own curve: %v, want ErrManifest wrapping ErrBadIdentity", err)
	}
	if got, _ := os.ReadFile(path); string(got) != v1Manifest {
		t.Fatalf("the v1 manifest was rewritten as %q", got)
	}
	if ents, err := os.ReadDir(dir); err != nil || len(ents) != 1 {
		t.Fatalf("directory after the refused open: %d entries, %v; want the manifest alone", len(ents), err)
	}
}

// TestSharedCacheAcrossShards: one CacheBytes budget must back every
// shard engine — queries through the router hit the shared cache, and
// Close leaves no resident pages behind.
func TestSharedCacheAcrossShards(t *testing.T) {
	c, err := core.NewOnion2D(32)
	if err != nil {
		t.Fatal(err)
	}
	opts := manualShardOpts(4)
	opts.CacheBytes = 1 << 20
	s, err := Open(t.TempDir(), c, opts)
	if err != nil {
		t.Fatal(err)
	}
	survivors := make(map[uint64]pagedstore.Record)
	mergeFinals(survivors, ownerPrograms(t, s, c, 77, 4, 600))
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(78))
	var firstIO, secondIO pagedstore.IOStats
	rects := make([]geom.Rect, 10)
	for i := range rects {
		rects[i] = randomRect(rng, c.Universe())
	}
	for pass := 0; pass < 2; pass++ {
		for _, r := range rects {
			_, st, err := s.Query(r)
			if err != nil {
				t.Fatal(err)
			}
			if pass == 0 {
				firstIO.Add(st.IO)
			} else {
				secondIO.Add(st.IO)
			}
		}
	}
	if secondIO.PagesFetched >= firstIO.PagesFetched+firstIO.CacheHits && secondIO.CacheHits == 0 {
		t.Fatalf("warm pass shows no caching: cold %+v, warm %+v", firstIO, secondIO)
	}
	cst := s.CacheStats()
	if cst.Hits == 0 || cst.Budget != 1<<20 {
		t.Fatalf("shared cache stats %+v", cst)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if cst := s.CacheStats(); cst.Pages != 0 || cst.Bytes != 0 {
		t.Fatalf("pages survive close: %+v", cst)
	}
}

// TestRouterOneShardQueryAllocs pins the cost of the common query — a
// plan inside one shard, run on the caller's goroutine — at the count
// measured with the parent's worker pool: one allocation, the
// caller-visible PerShard breakdown. A plan spanning both shards pays
// the same: it runs the two shards one after another on the same
// goroutine, each appending straight into dst.
func TestRouterOneShardQueryAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	c, err := core.NewOnion2D(1 << 8)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(t.TempDir(), c, Options{
		Shards:     2,
		Engine:     engine.Options{PageBytes: 4096, FlushEntries: -1},
		CacheBytes: 1 << 22,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(42))
	side := int32(c.Universe().Side())
	for i := 0; i < 20000; i++ {
		if err := s.Put(geom.Point{uint32(rng.Int31n(side)), uint32(rng.Int31n(side))}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	// GC off so sync.Pool contents survive the measurement loops.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for _, tc := range []struct {
		r      geom.Rect
		shards int
	}{
		{geom.Rect{Lo: geom.Point{0, 0}, Hi: geom.Point{31, 31}}, 1},  // outer rings: shard 0
		{geom.Rect{Lo: geom.Point{0, 0}, Hi: geom.Point{255, 40}}, 2}, // outer and inner rings
	} {
		var dst []Record
		var st Stats
		// Warm every pool and the cache, and size the record buffer.
		for i := 0; i < 4; i++ {
			if dst, st, err = s.QueryAppend(dst[:0], tc.r); err != nil {
				t.Fatal(err)
			}
		}
		if st.ShardsTouched != tc.shards || len(dst) == 0 {
			t.Fatalf("%v: touched %d shards, found %d records; want %d shards, some records", tc.r, st.ShardsTouched, len(dst), tc.shards)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if dst, _, err = s.QueryAppend(dst[:0], tc.r); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 1 {
			t.Fatalf("%v (%d shards): QueryAppend %v allocs/op, want 1 (the PerShard slice)", tc.r, tc.shards, allocs)
		}
	}
}

// TestQueryEntryPointsPinned pins the read path's exported surface: one
// instrumented body per layer, reached through exactly these names. A new
// Query* method on either type fails here until the pin is edited — which
// is the moment to ask whether it is sugar over the one body or a second
// body.
func TestQueryEntryPointsPinned(t *testing.T) {
	queryMethods := func(v any) []string {
		var names []string
		typ := reflect.TypeOf(v)
		for i := 0; i < typ.NumMethod(); i++ {
			if name := typ.Method(i).Name; strings.HasPrefix(name, "Query") {
				names = append(names, name)
			}
		}
		return names // reflect lists methods in name order
	}
	for _, tc := range []struct {
		typ  any
		want []string
	}{
		{(*engine.Engine)(nil), []string{"Query", "QueryAppend", "QueryAppendContext", "QueryRanges"}},
		{(*Sharded)(nil), []string{"Query", "QueryAppend", "QueryAppendContext"}},
	} {
		if got := queryMethods(tc.typ); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%T exports %v, want exactly %v", tc.typ, got, tc.want)
		}
	}
}

// TestFanOut pins the one fan-out helper every whole-service operation
// runs on (queries do not: they visit their shards one after another on
// the caller's goroutine): each index runs exactly once, a failure stops
// no other index, and the error is the lowest failing index's, wrapped
// with its number and still matchable.
func TestFanOut(t *testing.T) {
	for _, n := range []int{0, 1, 2, 5, 16} {
		for _, failing := range [][]int{nil, {0}, {3, 1}, {n - 1}} {
			runs := make([]atomic.Int32, n)
			sentinels := make([]error, n)
			for i := range sentinels {
				sentinels[i] = fmt.Errorf("index %d failed", i)
			}
			fails := map[int]bool{}
			lowest := -1
			for _, i := range failing {
				if i < 0 || i >= n {
					continue
				}
				fails[i] = true
				if lowest < 0 || i < lowest {
					lowest = i
				}
			}
			// Twice, so the second call runs on recycled scratch.
			for pass := 0; pass < 2; pass++ {
				err := fanOut(n, func(i int) error {
					runs[i].Add(1)
					if fails[i] {
						return sentinels[i]
					}
					return nil
				})
				for i := range runs {
					if got := runs[i].Load(); got != int32(pass+1) {
						t.Fatalf("n=%d failing=%v pass %d: index %d ran %d times in total", n, failing, pass, i, got)
					}
				}
				if lowest < 0 {
					if err != nil {
						t.Fatalf("n=%d: unexpected error %v", n, err)
					}
					continue
				}
				if !errors.Is(err, sentinels[lowest]) {
					t.Fatalf("n=%d failing=%v: error %v, want index %d's", n, failing, err, lowest)
				}
				if want := fmt.Sprintf("shard %d: ", lowest); !strings.HasPrefix(err.Error(), want) {
					t.Fatalf("n=%d failing=%v: error %q lacks prefix %q", n, failing, err, want)
				}
			}
		}
	}
}

// TestShardedPutKeysOnce: a sharded write evaluates the curve once, at the
// edge, and hands the owning engine the key it routed by: Put and Delete
// make one Index call each and no Coords call.
func TestShardedPutKeysOnce(t *testing.T) {
	o, err := core.NewOnion2D(64)
	if err != nil {
		t.Fatal(err)
	}
	c := &curvetest.Counting{PlannedCurve: o}
	s, err := Open(t.TempDir(), c, manualShardOpts(3))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close() //nolint:errcheck
	for i := range 20 {
		p := geom.Point{uint32(i * 3), uint32(i * 2)}
		c.Reset()
		if i%4 == 3 {
			err = s.Delete(p)
		} else {
			err = s.Put(p, uint64(i))
		}
		if err != nil {
			t.Fatal(err)
		}
		if n, k := c.IndexKeys.Load(), c.CoordsKeys.Load(); n != 1 || k != 0 {
			t.Fatalf("write %d: curve evaluated at %d points and %d keys, want 1 and 0", i, n, k)
		}
	}
}
