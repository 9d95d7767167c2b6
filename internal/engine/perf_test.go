package engine

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime/debug"
	"sync"
	"testing"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/pagedstore"
	"github.com/onioncurve/onion/internal/vfs"
)

// TestEngineCacheOnOffIdentical is the acceptance check for the page
// cache: the same engine directory opened with and without a cache must
// answer every query with bit-identical records and logical Stats, while
// the cached side's physical reads (the new IO counter) drop once the
// working set warms.
func TestEngineCacheOnOffIdentical(t *testing.T) {
	c, err := core.NewOnion2D(32)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := manualOpts()
	e, err := Open(dir, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	mergeFinals(make(map[uint64]pagedstore.Record), ownerPrograms(t, e, c, 71, 4, 600))
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	mergeFinals(make(map[uint64]pagedstore.Record), ownerPrograms(t, e, c, 72, 4, 300))
	if err := e.Flush(); err != nil { // two segments: multi-source merges
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	twin := t.TempDir()
	copyDir(t, dir, twin)

	cachedOpts := manualOpts()
	cachedOpts.Cache = pagedstore.NewCache(1 << 20) // plenty: the whole working set fits
	cached, err := Open(dir, c, cachedOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	bareOpts := manualOpts()
	bareOpts.Cache = nil
	bare, err := Open(twin, c, bareOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()

	rects := make([]geom.Rect, 25)
	rng := rand.New(rand.NewSource(73))
	for i := range rects {
		rects[i] = randomRect(rng, c.Universe())
	}
	var fetched [2]int // per pass: cached engine's physical page reads
	for pass := 0; pass < 2; pass++ {
		var logical int
		for _, r := range rects {
			got, gst, err := cached.Query(r)
			if err != nil {
				t.Fatal(err)
			}
			want, wst, err := bare.Query(r)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%v: %d records vs %d", r, len(got), len(want))
			}
			for i := range want {
				if !got[i].Point.Equal(want[i].Point) || got[i].Payload != want[i].Payload {
					t.Fatalf("%v: record %d diverges", r, i)
				}
			}
			gio, wio := gst.IO, wst.IO
			gst.IO, wst.IO = pagedstore.IOStats{}, pagedstore.IOStats{}
			if gst != wst {
				t.Fatalf("%v: cached stats %+v != bare stats %+v", r, gst, wst)
			}
			if wio.CacheHits != 0 {
				t.Fatalf("%v: bare engine reported cache hits %+v", r, wio)
			}
			fetched[pass] += gio.PagesFetched
			logical += gst.PagesRead
		}
		if fetched[pass] > logical {
			t.Fatalf("pass %d: %d physical reads exceed %d logical", pass, fetched[pass], logical)
		}
	}
	// Warm pass: everything is resident, physical reads collapse.
	if fetched[1] != 0 {
		t.Fatalf("warm pass still fetched %d pages (cold pass %d)", fetched[1], fetched[0])
	}
	if cst := cached.CacheStats(); cst.Hits == 0 {
		t.Fatalf("cache never hit: %+v", cst)
	}
}

// TestEngineCacheChurn runs concurrent query/flush/compaction churn over
// an engine with a pathologically small cache (relentless eviction),
// then proves the final state bit-identical — records AND logical
// stats — to a cache-off twin of the same directory and to a fresh
// bulk-loaded pagedstore of the surviving records.
func TestEngineCacheChurn(t *testing.T) {
	c, err := core.NewOnion2D(32)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := Options{
		PageBytes:     384,
		FlushEntries:  250,                          // frequent background flushes
		CompactFanout: 2,                            // aggressive background compaction
		Cache:         pagedstore.NewCache(8 * 384), // one page per cache shard: eviction storm
	}
	e, err := Open(dir, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for g := 0; g < 2; g++ {
		readers.Add(1)
		go func(g int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(500 + g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, err := e.Query(randomRect(rng, c.Universe())); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	survivors := make(map[uint64]pagedstore.Record)
	mergeFinals(survivors, ownerPrograms(t, e, c, 81, 4, 800))
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	mergeFinals(survivors, ownerPrograms(t, e, c, 82, 4, 400))
	close(stop)
	readers.Wait()
	if t.Failed() {
		return
	}
	if err := e.BackgroundErr(); err != nil {
		t.Fatal(err)
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}

	// Reference 1: a fresh pagedstore of exactly the survivors.
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

	// Reference 2: the same directory, cache off. (Close flushes; the
	// compacted state is stable, so the copy equals the live dir.)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	twin := t.TempDir()
	copyDir(t, dir, twin)
	bareOpts := opts
	bareOpts.Cache = nil
	bareOpts.FlushEntries, bareOpts.CompactFanout = -1, -1
	bare, err := Open(twin, c, bareOpts)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	e, err = Open(dir, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	rng := rand.New(rand.NewSource(83))
	for trial := 0; trial < 30; trial++ {
		r := randomRect(rng, c.Universe())
		got, gst, err := e.Query(r)
		if err != nil {
			t.Fatal(err)
		}
		bgot, bst, err := bare.Query(r)
		if err != nil {
			t.Fatal(err)
		}
		want, wst, err := ref.Query(r)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) || len(bgot) != len(want) {
			t.Fatalf("%v: %d/%d records vs reference %d", r, len(got), len(bgot), len(want))
		}
		for i := range want {
			if !got[i].Point.Equal(want[i].Point) || got[i].Payload != want[i].Payload {
				t.Fatalf("%v: record %d diverges from pagedstore reference", r, i)
			}
		}
		if gst.Stats != wst {
			t.Fatalf("%v: cached engine stats %+v != pagedstore stats %+v", r, gst.Stats, wst)
		}
		gst.IO, bst.IO = pagedstore.IOStats{}, pagedstore.IOStats{}
		if gst != bst {
			t.Fatalf("%v: cached stats %+v != cache-off stats %+v", r, gst, bst)
		}
	}
}

// TestGroupCommitDurability: concurrent SyncWrites writers commit one
// at a time through the write lock; every acknowledged write must be in
// the log (simulated crash: the directory is copied without closing the
// engine), and the torn-tail guarantee must hold at EVERY byte boundary
// of the log they wrote — each prefix replays to an exact frame-prefix
// of the full history, never a fabricated or reordered op.
func TestGroupCommitDurability(t *testing.T) {
	c, err := core.NewOnion2D(16)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := manualOpts()
	opts.SyncWrites = true
	e, err := Open(dir, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	const writers, steps = 4, 60
	type acked struct {
		pt      geom.Point
		payload uint64
	}
	ackedOps := make([][]acked, writers)
	var wg sync.WaitGroup
	for g := 0; g < writers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(900 + g)))
			u := e.c.Universe()
			for i := 0; i < steps; i++ {
				// Writer-owned keys, so final per-cell state is
				// deterministic.
				key := uint64(rng.Int63n(int64(u.Size())))
				key -= key % writers
				key += uint64(g)
				if key >= u.Size() {
					continue
				}
				pt := e.c.Coords(key, make(geom.Point, 2))
				payload := uint64(g)<<32 | uint64(i)
				if err := e.Put(pt, payload); err != nil {
					t.Error(err)
					return
				}
				// Put returned with SyncWrites on: this op is durable NOW.
				ackedOps[g] = append(ackedOps[g], acked{pt: pt, payload: payload})
			}
		}(g)
	}
	wg.Wait()
	if t.Failed() {
		return
	}

	// Simulated crash: snapshot the directory while the engine is still
	// open — nothing Close would flush may be needed for recovery. The
	// WAL bytes are captured NOW: recovery below replays and then
	// retires the log.
	crash := t.TempDir()
	copyDir(t, dir, crash)
	var data []byte
	ents, err := os.ReadDir(crash)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		var gen uint64
		if n, _ := fmt.Sscanf(ent.Name(), "wal-%d.log", &gen); n == 1 {
			if data, err = os.ReadFile(filepath.Join(crash, ent.Name())); err != nil {
				t.Fatal(err)
			}
		}
	}
	if data == nil {
		t.Fatal("no WAL in crash snapshot")
	}
	re, err := Open(crash, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, _, err := re.Query(c.Universe().Rect())
	if err != nil {
		t.Fatal(err)
	}
	state := make(map[uint64]uint64, len(got))
	for _, rec := range got {
		state[e.c.Index(rec.Point)] = rec.Payload
	}
	for g, ops := range ackedOps {
		final := make(map[uint64]uint64)
		for _, op := range ops {
			final[e.c.Index(op.pt)] = op.payload
		}
		for key, payload := range final {
			if state[key] != payload {
				t.Fatalf("writer %d: acked write at key %d lost (have %d, want %d)",
					g, key, state[key], payload)
			}
		}
	}

	// Torn-tail at every byte boundary of the log.
	fullPath := filepath.Join(t.TempDir(), "full.log")
	if err := os.WriteFile(fullPath, data, 0o644); err != nil {
		t.Fatal(err)
	}
	full, err := replayWAL(vfs.OS{}, fullPath, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(full) == 0 {
		t.Fatal("empty replay of a synced log")
	}
	torn := filepath.Join(t.TempDir(), "torn.log")
	prev := 0
	for b := 0; b <= len(data); b++ {
		if err := os.WriteFile(torn, data[:b], 0o644); err != nil {
			t.Fatal(err)
		}
		ops, err := replayWAL(vfs.OS{}, torn, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Replay of any prefix is an exact op-prefix of the full history:
		// monotone in the cut point, no fabricated tail ops.
		if len(ops) < prev || len(ops) > len(full) {
			t.Fatalf("cut %d: %d ops (prev %d, full %d)", b, len(ops), prev, len(full))
		}
		for i, op := range ops {
			w := full[i]
			if !op.Point.Equal(w.Point) || op.Payload != w.Payload || op.Del != w.Del {
				t.Fatalf("cut %d: op %d = %+v, want %+v", b, i, op, w)
			}
		}
		prev = len(ops)
	}
	if prev != len(full) {
		t.Fatalf("full-length cut replayed %d of %d ops", prev, len(full))
	}
}

// TestGroupCommitWithRotation interleaves concurrent SyncWrites writers
// with flushes (which rotate the log between their batches) and
// proves nothing acknowledged is lost across a reopen.
func TestGroupCommitWithRotation(t *testing.T) {
	c, err := core.NewOnion2D(16)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := manualOpts()
	opts.SyncWrites = true
	e, err := Open(dir, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	survivors := make(map[uint64]pagedstore.Record)
	for round := 0; round < 4; round++ {
		mergeFinals(survivors, ownerPrograms(t, e, c, int64(600+round), 4, 120))
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	mergeFinals(survivors, ownerPrograms(t, e, c, 699, 4, 120))
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(dir, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	got, _, err := re.Query(c.Universe().Rect())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(survivors) {
		t.Fatalf("%d records after reopen, want %d", len(got), len(survivors))
	}
	for _, rec := range got {
		key := re.c.Index(rec.Point)
		want, ok := survivors[key]
		if !ok || want.Payload != rec.Payload {
			t.Fatalf("key %d: record %v/%d, want %+v", key, rec.Point, rec.Payload, want)
		}
	}
}

// TestEngineQueryZeroAlloc pins the zero-allocation steady state of the
// query path: pooled query scratch, pooled cursors with their plan
// schedules and run buffers, plan-buffer reuse and a recycled record
// buffer leave nothing to allocate per query once warm. It holds behind a
// cache that serves every page and with no cache at all, where every page
// visit is a physical read through the cursor's run buffer.
func TestEngineQueryZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	c, err := core.NewOnion2D(1 << 8)
	if err != nil {
		t.Fatal(err)
	}
	for _, cache := range []*pagedstore.Cache{pagedstore.NewCache(1 << 22), nil} {
		opts := Options{PageBytes: 4096, FlushEntries: -1, CompactFanout: -1, Cache: cache}
		e, err := Open(t.TempDir(), c, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		rng := rand.New(rand.NewSource(42))
		side := int32(c.Universe().Side())
		for i := 0; i < 20000; i++ {
			pt := geom.Point{uint32(rng.Int31n(side)), uint32(rng.Int31n(side))}
			if err := e.Put(pt, uint64(i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := e.Compact(); err != nil {
			t.Fatal(err)
		}
		r := geom.Rect{Lo: geom.Point{40, 40}, Hi: geom.Point{103, 103}}
		var dst []Record
		// Warm every pool and the cache, and size the record buffer.
		for i := 0; i < 4; i++ {
			dst, _, err = e.QueryAppend(dst[:0], r)
			if err != nil {
				t.Fatal(err)
			}
		}
		if len(dst) == 0 {
			t.Fatal("warmup query found nothing")
		}
		// GC off so sync.Pool contents survive the measurement loop.
		gc := debug.SetGCPercent(-1)
		var st Stats
		allocs := testing.AllocsPerRun(100, func() {
			dst, st, err = e.QueryAppend(dst[:0], r)
			if err != nil {
				t.Fatal(err)
			}
		})
		debug.SetGCPercent(gc)
		if (cache == nil) != (st.IO.ReadCalls > 0) {
			t.Fatalf("cache %v: io %+v", cache != nil, st.IO)
		}
		if allocs != 0 {
			t.Fatalf("cache %v: steady-state query path allocates %.1f objects/op, want 0", cache != nil, allocs)
		}
	}
}
