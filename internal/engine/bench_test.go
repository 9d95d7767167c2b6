package engine

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/pagedstore"
)

// benchOpts: real pages, background flush on, compaction on — the shape a
// serving deployment would run.
func benchOpts() Options {
	return Options{PageBytes: 4096, FlushEntries: 1 << 15, compactFanout: 4}
}

func benchEngine(b *testing.B, opts Options) *Engine {
	b.Helper()
	o, err := core.NewOnion2D(1 << 9)
	if err != nil {
		b.Fatal(err)
	}
	e, err := Open(b.TempDir(), o, opts)
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	return e
}

// BenchmarkEngineIngest measures the acknowledged write path: WAL frame +
// memtable insert (no per-write fsync), including the background flushes
// it triggers.
func BenchmarkEngineIngest(b *testing.B) {
	e := benchEngine(b, benchOpts())
	side := int32(e.c.Universe().Side())
	rng := rand.New(rand.NewSource(1))
	pts := make([]geom.Point, 4096)
	for i := range pts {
		pts[i] = geom.Point{uint32(rng.Int31n(side)), uint32(rng.Int31n(side))}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := e.Put(pts[i%len(pts)], uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEngineIngestParallel drives Put from all procs: the WAL append
// serializes on one mutex, the memtable insert lands on per-shard locks.
func BenchmarkEngineIngestParallel(b *testing.B) {
	e := benchEngine(b, benchOpts())
	side := int32(e.c.Universe().Side())
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(seq.Add(1)))
		for pb.Next() {
			pt := geom.Point{uint32(rng.Int31n(side)), uint32(rng.Int31n(side))}
			if err := e.Put(pt, rng.Uint64()); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkEngineMixedReadWrite interleaves writes with rectangle queries
// (one planner call + merged scan each) on the shared engine — the
// ingest-while-serving workload the engine exists for.
func BenchmarkEngineMixedReadWrite(b *testing.B) {
	e := benchEngine(b, benchOpts())
	side := int32(e.c.Universe().Side())
	// Pre-load so queries have data to find.
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 50_000; i++ {
		pt := geom.Point{uint32(rng.Int31n(side)), uint32(rng.Int31n(side))}
		if err := e.Put(pt, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	var seq atomic.Int64
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		rng := rand.New(rand.NewSource(100 + seq.Add(1)))
		for pb.Next() {
			if rng.Intn(4) == 0 { // 25% queries, 75% writes
				lo := geom.Point{uint32(rng.Int31n(side - 32)), uint32(rng.Int31n(side - 32))}
				r := geom.Rect{Lo: lo, Hi: geom.Point{lo[0] + 31, lo[1] + 31}}
				if _, _, err := e.Query(r); err != nil {
					b.Fatal(err)
				}
			} else {
				pt := geom.Point{uint32(rng.Int31n(side)), uint32(rng.Int31n(side))}
				if err := e.Put(pt, rng.Uint64()); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// benchSyncIngestProducers drives exactly b.N durable puts split across
// an explicit number of producer goroutines, each blocking on its own
// write — the closed-loop synchronous baseline the async ingest pipeline
// is gated against at matching producer counts.
func benchSyncIngestProducers(b *testing.B, producers int) {
	opts := benchOpts()
	opts.SyncWrites = true
	e := benchEngine(b, opts)
	side := int32(e.c.Universe().Side())
	base, extra := b.N/producers, b.N%producers
	b.ResetTimer()
	var wg sync.WaitGroup
	for w := 0; w < producers; w++ {
		n := base
		if w < extra {
			n++
		}
		wg.Add(1)
		go func(w, n int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w) + 1))
			for i := 0; i < n; i++ {
				pt := geom.Point{uint32(rng.Int31n(side)), uint32(rng.Int31n(side))}
				if err := e.Put(pt, rng.Uint64()); err != nil {
					b.Error(err)
					return
				}
			}
		}(w, n)
	}
	wg.Wait()
}

// BenchmarkEngineIngestSyncGroup runs p closed-loop writers, each
// blocking on its own synchronous Put. The engine serializes them — one
// writer at a time, one fsync per write — so ns/op stays near one disk
// barrier at every p; it is the baseline BenchmarkIngestPipeline's
// batching is measured against.
func BenchmarkEngineIngestSyncGroup(b *testing.B) {
	for _, p := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) { benchSyncIngestProducers(b, p) })
	}
}

// BenchmarkEngineQueryCached measures the steady-state cached read path
// at increasing cache budgets on a compacted 100k-record engine: 64x64
// rectangle queries through the buffer-reusing QueryAppend, reporting
// physical page fetches, and the positioned reads that fetched them,
// alongside the logical seeks and page reads. With allocs/op
// at 0 the entire per-query cost is compute plus whatever physical I/O
// the budget could not absorb.
func BenchmarkEngineQueryCached(b *testing.B) { benchQueryCached(b, false) }

// BenchmarkEngineQueryCachedNoTelemetry is the identical workload with
// metric recording compiled out (Options.noTelemetry): the delta against
// BenchmarkEngineQueryCached is the true hot-path cost of telemetry,
// which CI gates at 5%. Both variants must stay at 0 allocs/op.
func BenchmarkEngineQueryCachedNoTelemetry(b *testing.B) { benchQueryCached(b, true) }

func benchQueryCached(b *testing.B, noTelemetry bool) {
	for _, budget := range []int64{0, 256 << 10, 8 << 20} {
		b.Run(fmt.Sprintf("cache=%d", budget), func(b *testing.B) {
			var cache *pagedstore.Cache // budget 0: no cache
			if budget > 0 {
				cache = pagedstore.NewCache(budget)
			}
			e := benchEngine(b, Options{PageBytes: 4096, FlushEntries: -1, compactFanout: -1,
				Cache: cache, noTelemetry: noTelemetry})
			side := int32(e.c.Universe().Side())
			rng := rand.New(rand.NewSource(3))
			for i := 0; i < 100_000; i++ {
				pt := geom.Point{uint32(rng.Int31n(side)), uint32(rng.Int31n(side))}
				if err := e.Put(pt, uint64(i)); err != nil {
					b.Fatal(err)
				}
			}
			if err := e.Flush(); err != nil {
				b.Fatal(err)
			}
			if err := e.Compact(); err != nil {
				b.Fatal(err)
			}
			rects := make([]geom.Rect, 64)
			for i := range rects {
				lo := geom.Point{uint32(rng.Int31n(side - 64)), uint32(rng.Int31n(side - 64))}
				rects[i] = geom.Rect{Lo: lo, Hi: geom.Point{lo[0] + 63, lo[1] + 63}}
			}
			var dst []Record
			var err error
			for _, r := range rects { // warm the cache and every pool
				if dst, _, err = e.QueryAppend(dst[:0], r); err != nil {
					b.Fatal(err)
				}
			}
			var seeks, logical, fetched, hits, calls int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				var st Stats
				dst, st, err = e.QueryAppend(dst[:0], rects[i%len(rects)])
				if err != nil {
					b.Fatal(err)
				}
				seeks += int64(st.Seeks)
				logical += int64(st.PagesRead)
				fetched += int64(st.IO.PagesFetched)
				hits += int64(st.IO.CacheHits)
				calls += int64(st.IO.ReadCalls)
			}
			b.StopTimer()
			if b.N > 0 {
				b.ReportMetric(float64(seeks)/float64(b.N), "seeks/op")
				b.ReportMetric(float64(logical)/float64(b.N), "logicalpages/op")
				b.ReportMetric(float64(fetched)/float64(b.N), "physpages/op")
				b.ReportMetric(float64(hits)/float64(b.N), "cachehits/op")
				b.ReportMetric(float64(calls)/float64(b.N), "readcalls/op")
			}
		})
	}
}

// BenchmarkEngineQueryCompacted measures the steady-state read path: a
// fully compacted engine answering a 64x64 rectangle.
func BenchmarkEngineQueryCompacted(b *testing.B) {
	e := benchEngine(b, Options{PageBytes: 4096, FlushEntries: -1, compactFanout: -1})
	side := int32(e.c.Universe().Side())
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100_000; i++ {
		pt := geom.Point{uint32(rng.Int31n(side)), uint32(rng.Int31n(side))}
		if err := e.Put(pt, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		b.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		b.Fatal(err)
	}
	var seeks, results int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		lo := geom.Point{uint32(rng.Int31n(side - 64)), uint32(rng.Int31n(side - 64))}
		r := geom.Rect{Lo: lo, Hi: geom.Point{lo[0] + 63, lo[1] + 63}}
		recs, st, err := e.Query(r)
		if err != nil {
			b.Fatal(err)
		}
		seeks += int64(st.Seeks)
		results += int64(len(recs))
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(seeks)/float64(b.N), "seeks/op")
		b.ReportMetric(float64(results)/float64(b.N), "results/op")
	}
}
