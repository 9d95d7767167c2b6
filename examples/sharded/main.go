// Sharded serving example: the curve's key space is split across four
// independent engine shards; writers stream updates into their owning
// shards while readers run rectangle queries that are planned once,
// split at shard boundaries, and fanned out concurrently to only the
// shards they intersect.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	onion "github.com/onioncurve/onion"
)

func main() {
	const side = 1 << 9
	const shards = 4
	dir, err := os.MkdirTemp("", "onion-sharded")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	o, err := onion.NewOnion2D(side)
	if err != nil {
		log.Fatal(err)
	}
	s, err := onion.OpenShardedEngine(dir, o, onion.ShardedEngineOptions{
		Shards: shards,
		Engine: onion.EngineOptions{FlushEntries: 20_000},
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("sharded engine at %s: %d shards over a %dx%d onion-clustered universe\n\n",
		dir, shards, side, side)

	// 4 writers ingest 200k updates while 2 readers query the moving set.
	var written, queries, fanout atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 50_000; i++ {
				pt := onion.Point{uint32(rng.Intn(side)), uint32(rng.Intn(side))}
				var werr error
				if rng.Intn(10) == 0 {
					werr = s.Delete(pt)
				} else {
					werr = s.Put(pt, rng.Uint64())
				}
				if werr != nil {
					log.Fatal(werr)
				}
				written.Add(1)
			}
		}(w)
	}
	stop := make(chan struct{})
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + r)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				q, err := onion.RectAt(
					onion.Point{uint32(rng.Intn(side - 64)), uint32(rng.Intn(side - 64))},
					[]uint32{64, 64})
				if err != nil {
					log.Fatal(err)
				}
				_, st, err := s.Query(q)
				if err != nil {
					log.Fatal(err)
				}
				queries.Add(1)
				fanout.Add(int64(st.ShardsTouched))
				runtime.Gosched() // model client think time
			}
		}(r)
	}
	for written.Load() < 200_000 {
		time.Sleep(20 * time.Millisecond)
	}
	close(stop)
	wg.Wait()
	fmt.Printf("ingest done: %d writes routed by curve key, %d queries served mid-ingest "+
		"(avg fan-out %.2f of %d shards)\n\n",
		written.Load(), queries.Load(),
		float64(fanout.Load())/float64(queries.Load()), shards)

	if err := s.Flush(); err != nil {
		log.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		log.Fatal(err)
	}
	es := s.Stats()
	fmt.Printf("after flush + compaction (%d records total):\n", es.SegmentRecords)
	for i, ps := range es.PerShard {
		fmt.Printf("  shard %d: %d segment(s), %6d records, %d flushes, %d compactions\n",
			i, ps.Segments, ps.SegmentRecords, ps.Flushes, ps.Compactions)
	}

	// One query, dissected: a 128x128 rectangle is planned once; the
	// split sub-plans run only on the shards they intersect, and the
	// aggregate seeks are the sum of the per-shard seeks.
	q, err := onion.RectAt(onion.Point{100, 100}, []uint32{128, 128})
	if err != nil {
		log.Fatal(err)
	}
	recs, st, err := s.Query(q)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nquery %v: %d records, planned %d cluster ranges -> %d sub-ranges on %d shard(s)\n",
		q, len(recs), st.Planned, st.SubRanges, st.ShardsTouched)
	// Records decoded from segment pages over results is the LSM's read
	// amplification: 1 right after a full compaction, as here; between
	// compactions the excess is shadowed versions and tombstones.
	for _, ps := range st.PerShard {
		fmt.Printf("  shard %d: %3d seeks, %4d pages, %5d records decoded, %5d results\n",
			ps.Shard, ps.Seeks, ps.PagesRead, ps.RecordsScanned, ps.Results)
	}
	fmt.Printf("  total:   %3d seeks, %4d pages, %5d records decoded, %5d results\n",
		st.Seeks, st.PagesRead, st.RecordsScanned, st.Results)

	if err := s.Close(); err != nil {
		log.Fatal(err)
	}
	// Reopen: every shard recovers independently from its own WAL and
	// segments; the manifest pins the partition.
	s2, err := onion.OpenShardedEngine(dir, o, onion.ShardedEngineOptions{Shards: shards})
	if err != nil {
		log.Fatal(err)
	}
	all, _, err := s2.Query(o.Universe().Rect())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nreopened: %d records intact across %d shards\n", len(all), shards)
	if err := s2.Close(); err != nil {
		log.Fatal(err)
	}
}
