package engine

import (
	"context"
	"errors"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"github.com/onioncurve/onion/internal/baseline"
	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/pagedstore"
	"github.com/onioncurve/onion/internal/vfs"
)

// manualOpts disables all background behavior so tests control the
// lifecycle explicitly. The deliberately tiny page cache (16 pages) runs
// the whole suite under eviction pressure: the logical stat contracts
// must hold bit-identically with caching and footer pruning active.
func manualOpts() Options {
	return Options{PageBytes: 384, FlushEntries: -1, compactFanout: -1, Cache: pagedstore.NewCache(16 * 384)}
}

func randomRect(rng *rand.Rand, u geom.Universe) geom.Rect {
	d := u.Dims()
	lo := make(geom.Point, d)
	hi := make(geom.Point, d)
	for i := 0; i < d; i++ {
		a := uint32(rng.Int31n(int32(u.Side())))
		b := uint32(rng.Int31n(int32(u.Side())))
		if a > b {
			a, b = b, a
		}
		lo[i], hi[i] = a, b
	}
	return geom.Rect{Lo: lo, Hi: hi}
}

func TestEngineBasic(t *testing.T) {
	o, _ := core.NewOnion2D(16)
	e, err := Open(t.TempDir(), o, manualOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Put(geom.Point{3, 4}, 42); err != nil {
		t.Fatal(err)
	}
	if err := e.Put(geom.Point{3, 4}, 43); err != nil { // overwrite
		t.Fatal(err)
	}
	if err := e.Put(geom.Point{5, 5}, 7); err != nil {
		t.Fatal(err)
	}
	if err := e.Delete(geom.Point{5, 5}); err != nil {
		t.Fatal(err)
	}
	got, st, err := e.Query(o.Universe().Rect())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Payload != 43 || !got[0].Point.Equal(geom.Point{3, 4}) {
		t.Fatalf("got %v", got)
	}
	if st.MemEntries == 0 || st.Segments != 0 || st.Seeks != 0 {
		t.Fatalf("stats %+v", st)
	}
	// Flush moves it to a segment; query result is unchanged.
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	got2, st2, err := e.Query(o.Universe().Rect())
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 1 || got2[0].Payload != 43 {
		t.Fatalf("after flush: %v", got2)
	}
	if st2.Segments != 1 || st2.Seeks == 0 {
		t.Fatalf("after flush stats %+v", st2)
	}
	// The tombstone still exists (not compacted); Compact drops it.
	es := e.Stats()
	if es.SegmentRecords != 2 {
		t.Fatalf("segment records = %d, want 2 (incl. tombstone)", es.SegmentRecords)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if es := e.Stats(); es.SegmentRecords != 1 || es.Segments != 1 {
		t.Fatalf("after compact %+v", es)
	}
	if err := e.Put(geom.Point{0, 0}, 9); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Put(geom.Point{1, 1}, 1); err != ErrClosed {
		t.Fatalf("put after close: %v", err)
	}
	if err := e.Close(); err != ErrClosed {
		t.Fatalf("second close: %v", err)
	}
}

func TestEngineReopen(t *testing.T) {
	o, _ := core.NewOnion2D(16)
	dir := t.TempDir()
	e, err := Open(dir, o, manualOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		if err := e.Put(geom.Point{uint32(i) % 16, uint32(i) / 16}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(dir, o, manualOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	got, _, err := e2.Query(o.Universe().Rect())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("reopened engine has %d records, want 100", len(got))
	}
}

// ownerPrograms runs nWriters concurrent goroutines, each owning a
// disjoint subset of the universe's cells and applying a random put/delete
// program to its own cells — so the final state per cell is deterministic
// regardless of scheduling. It returns each touched key's final op: a
// record for a put, nil for a delete.
func ownerPrograms(t *testing.T, e *Engine, c curve.Curve, seed int64, nWriters, steps int) map[uint64]*pagedstore.Record {
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
				// Pick one of this writer's own cells: cells whose curve
				// key is congruent to g mod nWriters.
				key := uint64(rng.Int63n(int64(u.Size())))
				key -= key % uint64(nWriters)
				key += uint64(g)
				if key >= u.Size() {
					continue
				}
				pt := c.Coords(key, make(geom.Point, d))
				if rng.Intn(4) == 0 {
					if err := e.Delete(pt); err != nil {
						errs[g] = err
						return
					}
					final[key] = nil
				} else {
					payload := rng.Uint64()
					if err := e.Put(pt, payload); err != nil {
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

// mergeFinals folds one program round's final ops into the survivor set.
func mergeFinals(survivors map[uint64]pagedstore.Record, finals map[uint64]*pagedstore.Record) {
	for k, r := range finals {
		if r != nil {
			survivors[k] = *r
		} else {
			delete(survivors, k)
		}
	}
}

// TestEngineCrossCheck is the acceptance criterion: an engine filled by
// concurrent Put/Delete, then flushed and fully compacted, must answer
// every rectangle with bit-identical records AND physical stats (seeks,
// pages, records scanned) to a fresh pagedstore bulk-loaded with the same
// surviving records, across curve families.
func TestEngineCrossCheck(t *testing.T) {
	curves := []struct {
		name string
		mk   func() (curve.Curve, error)
	}{
		{"onion2d", func() (curve.Curve, error) { return core.NewOnion2D(32) }},
		{"onion3d", func() (curve.Curve, error) { return core.NewOnion3D(16) }},
		{"hilbert", func() (curve.Curve, error) { return baseline.NewHilbert(2, 32) }},
	}
	for ci, tc := range curves {
		t.Run(tc.name, func(t *testing.T) {
			c, err := tc.mk()
			if err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			e, err := Open(dir, c, manualOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			survivors := make(map[uint64]pagedstore.Record)
			mergeFinals(survivors, ownerPrograms(t, e, c, int64(1000+ci), 4, 600))
			// Interleave a flush with more concurrent traffic so the
			// engine state spans memtable + several segments.
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			mergeFinals(survivors, ownerPrograms(t, e, c, int64(2000+ci), 4, 300))
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := e.Compact(); err != nil {
				t.Fatal(err)
			}
			recs := make([]pagedstore.Record, 0, len(survivors))
			for _, r := range survivors {
				recs = append(recs, r)
			}
			refPath := filepath.Join(t.TempDir(), "ref.pst")
			if err := pagedstore.Write(refPath, c, recs, 384); err != nil {
				t.Fatal(err)
			}
			ref, err := pagedstore.Open(refPath, c)
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			rng := rand.New(rand.NewSource(int64(77 + ci)))
			for trial := 0; trial < 40; trial++ {
				r := randomRect(rng, c.Universe())
				got, gst, err := e.Query(r)
				if err != nil {
					t.Fatal(err)
				}
				want, wst, err := ref.Query(r)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want) {
					t.Fatalf("%v: %d results vs %d", r, len(got), len(want))
				}
				for i := range want {
					if !got[i].Point.Equal(want[i].Point) || got[i].Payload != want[i].Payload {
						t.Fatalf("%v: record %d: %v/%d vs %v/%d",
							r, i, got[i].Point, got[i].Payload, want[i].Point, want[i].Payload)
					}
				}
				if gst.Stats != wst {
					t.Fatalf("%v: engine stats %+v != pagedstore stats %+v", r, gst.Stats, wst)
				}
			}
		})
	}
}

// TestEngineQueryWhileMixed cross-checks results (not physical stats)
// while the engine still holds a mix of memtable, frozen and segment
// data — before any compaction.
func TestEngineQueryWhileMixed(t *testing.T) {
	c, _ := core.NewOnion2D(32)
	e, err := Open(t.TempDir(), c, manualOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	survivors := make(map[uint64]pagedstore.Record)
	mergeFinals(survivors, ownerPrograms(t, e, c, 31, 4, 400))
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	mergeFinals(survivors, ownerPrograms(t, e, c, 32, 4, 400)) // second layer, unflushed
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 30; trial++ {
		r := randomRect(rng, c.Universe())
		got, _, err := e.Query(r)
		if err != nil {
			t.Fatal(err)
		}
		want := make(map[uint64]uint64)
		for k, rec := range survivors {
			if r.Contains(rec.Point) {
				want[k] = rec.Payload
			}
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d results, want %d", r, len(got), len(want))
		}
		for _, rec := range got {
			k := c.Index(rec.Point)
			if p, ok := want[k]; !ok || p != rec.Payload {
				t.Fatalf("%v: unexpected record %v/%d", r, rec.Point, rec.Payload)
			}
		}
	}
}

func copyDir(t *testing.T, src, dst string) {
	t.Helper()
	ents, err := os.ReadDir(src)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if ent.IsDir() {
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

// TestEngineCrashRecovery simulates a crash by snapshotting the engine
// directory while the engine is live (WAL not cleanly closed), tearing
// the WAL tail, and reopening: every acknowledged (synced) write must
// survive; the torn trailing garbage must not.
func TestEngineCrashRecovery(t *testing.T) {
	c, _ := core.NewOnion2D(32)
	dir := t.TempDir()
	opts := manualOpts()
	opts.SyncWrites = true
	e, err := Open(dir, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := make(map[uint64]uint64)
	for i := 0; i < 150; i++ {
		pt := geom.Point{uint32(i) % 32, (uint32(i) * 7) % 32}
		if err := e.Put(pt, uint64(i)); err != nil {
			t.Fatal(err)
		}
		want[c.Index(pt)] = uint64(i)
	}
	// A couple of acknowledged deletes too.
	for i := 0; i < 10; i++ {
		pt := geom.Point{uint32(i) % 32, (uint32(i) * 7) % 32}
		if err := e.Delete(pt); err != nil {
			t.Fatal(err)
		}
		delete(want, c.Index(pt))
	}
	// Crash snapshot: copy the directory while the engine is running.
	crash := t.TempDir()
	copyDir(t, dir, crash)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	// Tear the WAL in the snapshot: chop half of the final frame and
	// append garbage, as an in-flight unacknowledged write would leave.
	wals, err := filepath.Glob(filepath.Join(crash, "wal-*.log"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("wals %v err %v", wals, err)
	}
	data, err := os.ReadFile(wals[0])
	if err != nil {
		t.Fatal(err)
	}
	frame := 8 + keyOpSize(true)
	torn := append(append([]byte{}, data...), data[:frame/2]...)
	torn = append(torn, 0xde, 0xad)
	if err := os.WriteFile(wals[0], torn, 0o644); err != nil {
		t.Fatal(err)
	}
	re, err := Open(crash, c, manualOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, _, err := re.Query(c.Universe().Rect())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for _, rec := range got {
		if want[c.Index(rec.Point)] != rec.Payload {
			t.Fatalf("recovered %v/%d diverges", rec.Point, rec.Payload)
		}
	}
}

// TestEngineIngestWhileQuerying hammers the engine with concurrent
// writers, readers, flushes and background compaction; correctness of the
// final state is checked against the deterministic ownership model. Run
// under -race this is the engine's concurrency test.
func TestEngineIngestWhileQuerying(t *testing.T) {
	c, _ := core.NewOnion2D(32)
	opts := Options{PageBytes: 384, FlushEntries: 500, compactFanout: 2}
	e, err := Open(t.TempDir(), c, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(900 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				rect := randomRect(rng, c.Universe())
				if _, _, err := e.Query(rect); err != nil {
					t.Error(err)
					return
				}
			}
		}(r)
	}
	survivors := make(map[uint64]pagedstore.Record)
	mergeFinals(survivors, ownerPrograms(t, e, c, 71, 4, 1500))
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}
	writeUntilCompaction(t, e, survivors)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	got, _, err := e.Query(c.Universe().Rect())
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
	if es := e.Stats(); es.Flushes == 0 {
		t.Error("automatic flush never ran")
	}
}

// TestQueryRanges: the exported per-range hook must reproduce Query
// bit for bit (records and physical stats) when handed the same plan,
// and reject malformed plans.
func TestQueryRanges(t *testing.T) {
	c, _ := core.NewOnion2D(32)
	e, err := Open(t.TempDir(), c, manualOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	survivors := make(map[uint64]pagedstore.Record)
	mergeFinals(survivors, ownerPrograms(t, e, c, 55, 4, 500))
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	mergeFinals(survivors, ownerPrograms(t, e, c, 56, 4, 200)) // memtable layer too
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 25; trial++ {
		r := randomRect(rng, c.Universe())
		plan := c.DecomposeRect(r)
		want, wst, err := e.Query(r)
		if err != nil {
			t.Fatal(err)
		}
		got, gst, err := e.QueryRanges(context.Background(), nil, plan)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d records via ranges, %d via rect", r, len(got), len(want))
		}
		for i := range want {
			if !got[i].Point.Equal(want[i].Point) || got[i].Payload != want[i].Payload {
				t.Fatalf("%v: record %d diverges", r, i)
			}
		}
		gst.Planned = wst.Planned // QueryRanges documents Planned = 0
		// The physical IO counters are cache-state dependent (the first
		// query warmed the cache for the second), so they are outside the
		// bit-identical contract.
		gst.IO, wst.IO = pagedstore.IOStats{}, pagedstore.IOStats{}
		if gst != wst {
			t.Fatalf("%v: stats %+v vs %+v", r, gst, wst)
		}
	}
	n := c.Universe().Size()
	for _, bad := range [][]curve.KeyRange{
		{{Lo: 5, Hi: 4}},                   // inverted
		{{Lo: 0, Hi: n}},                   // beyond key space
		{{Lo: 0, Hi: 9}, {Lo: 9, Hi: 12}},  // overlapping
		{{Lo: 10, Hi: 12}, {Lo: 0, Hi: 5}}, // unsorted
	} {
		if _, _, err := e.QueryRanges(context.Background(), nil, bad); !errors.Is(err, ErrRanges) {
			t.Errorf("plan %v: err %v, want ErrRanges", bad, err)
		}
	}
}

func TestPickCompaction(t *testing.T) {
	cases := []struct {
		recs   []int
		fanout int
		lo, hi int
	}{
		{nil, 4, 0, 0},
		{[]int{100, 100, 100}, 4, 0, 0},              // not enough segments
		{[]int{100, 100, 100, 100}, 4, 0, 4},         // perfect tier
		{[]int{1000, 10, 10, 10, 10}, 4, 1, 5},       // old big segment left alone
		{[]int{1000, 10, 10, 10, 10, 9000}, 4, 1, 5}, // new big flush excluded
		{[]int{8, 10, 10, 10, 12, 11}, 4, 0, 6},      // greedy extension
		{[]int{1000, 10, 400, 10, 10}, 4, 0, 0},      // no similar adjacent run
	}
	for i, tc := range cases {
		lo, hi := pickCompaction(tc.recs, tc.fanout, 4)
		if lo != tc.lo || hi != tc.hi {
			t.Errorf("case %d %v: got [%d,%d), want [%d,%d)", i, tc.recs, lo, hi, tc.lo, tc.hi)
		}
	}
}

func TestScanDirCrashArtifacts(t *testing.T) {
	dir := t.TempDir()
	touch := func(name string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte{1}, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// A compaction of generations 3..5 crashed after renaming its output
	// but before deleting its inputs; a lone-segment rewrite of 7..7
	// crashed the same way, leaving two epochs of the same range.
	touch(identityFile) // an engine directory: scanDir refuses data without one
	touch("seg-000000000003-000000000005-000.pst")
	touch("seg-000000000003-000000000003-000.pst")
	touch("seg-000000000005-000000000005-000.pst")
	touch("seg-000000000007-000000000007-000.pst")
	touch("seg-000000000007-000000000007-001.pst")
	touch("wal-000000000008.log")
	touch("unrelated.txt")
	segs, wals, _, err := scanDir(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []segID{{lo: 3, hi: 5}, {lo: 7, hi: 7, epoch: 1}}
	if len(segs) != 2 || segs[0] != want[0] || segs[1] != want[1] {
		t.Fatalf("segs %v", segs)
	}
	if len(wals) != 1 || wals[0] != 8 {
		t.Fatalf("wals %v", wals)
	}
	// The stale inputs are gone from disk.
	for _, stale := range []string{
		"seg-000000000003-000000000003-000.pst",
		"seg-000000000007-000000000007-000.pst",
	} {
		if _, err := os.Stat(filepath.Join(dir, stale)); !os.IsNotExist(err) {
			t.Errorf("stale %s survived", stale)
		}
	}
	// Partial overlap is unrecoverable.
	touch("seg-000000000004-000000000009-000.pst")
	if _, _, _, err := scanDir(vfs.OS{}, dir); err == nil {
		t.Error("overlap accepted")
	}
}

func TestEngineErrors(t *testing.T) {
	o, _ := core.NewOnion2D(16)
	e, err := Open(t.TempDir(), o, manualOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Put(geom.Point{99, 0}, 1); err == nil {
		t.Error("point outside universe accepted")
	}
	if err := e.Delete(geom.Point{0}); err == nil {
		t.Error("wrong dims accepted")
	}
	// Query rectangle outside the universe.
	if _, _, err := e.Query(geom.Rect{Lo: geom.Point{0, 0}, Hi: geom.Point{99, 99}}); err == nil {
		t.Error("oversized rect accepted")
	}
}

// TestCompactLoneSegmentSurvivesReopen is the regression test for the
// in-place rewrite: a full compaction of a single tombstoned segment must
// produce a file that survives reopening (the output must never share the
// input's name, or retiring the input deletes the output).
func TestCompactLoneSegmentSurvivesReopen(t *testing.T) {
	c, _ := core.NewOnion2D(16)
	dir := t.TempDir()
	e, err := Open(dir, c, manualOpts())
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if err := e.Put(geom.Point{uint32(i) % 16, uint32(i) / 16}, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Delete(geom.Point{0, 0}); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	// One segment containing 50 records + 1 tombstone; compact it alone.
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if es := e.Stats(); es.Segments != 1 || es.SegmentRecords != 49 {
		t.Fatalf("after lone compact: %+v", es)
	}
	// Compacting again is a no-op (no tombstones left).
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(dir, c, manualOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	got, _, err := e2.Query(c.Universe().Rect())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 49 {
		t.Fatalf("reopen after lone-segment compact: %d records, want 49", len(got))
	}
}

// TestScanDirIgnoresTmp: a crashed segment write leaves a "*.pst.tmp"
// file whose name prefix parses like a real segment; it must be ignored,
// not treated as a higher-epoch replacement that deletes good data.
func TestScanDirIgnoresTmp(t *testing.T) {
	dir := t.TempDir()
	touch := func(name string) {
		if err := os.WriteFile(filepath.Join(dir, name), []byte{1}, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	touch(identityFile)
	touch("seg-000000000001-000000000001-000.pst")
	touch("seg-000000000001-000000000001-001.pst.tmp") // crashed rewrite
	touch("wal-000000000002.log.tmp")
	segs, wals, _, err := scanDir(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(segs) != 1 || segs[0] != (segID{lo: 1, hi: 1}) {
		t.Fatalf("segs %v, want only the real epoch-0 segment", segs)
	}
	if len(wals) != 0 {
		t.Fatalf("wals %v", wals)
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-000000000001-000000000001-000.pst")); err != nil {
		t.Fatal("the real segment was deleted")
	}
}
