package shard

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/geom"
)

// benchOpen opens a k-shard engine over a 512x512 onion universe with a
// preloaded record set.
func benchOpen(b *testing.B, k int) *Sharded {
	b.Helper()
	c, err := core.NewOnion2D(512)
	if err != nil {
		b.Fatal(err)
	}
	s, err := Open(b.TempDir(), c, Options{
		Shards: k,
		Engine: engine.Options{FlushEntries: 1 << 14},
	})
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 40_000; i++ {
		pt := geom.Point{uint32(rng.Intn(512)), uint32(rng.Intn(512))}
		if err := s.Put(pt, rng.Uint64()); err != nil {
			b.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		b.Fatal(err)
	}
	return s
}

// BenchmarkShardedMixed measures mixed read/write throughput against the
// shard count: each op is one 32x32 rectangle query or (4x as often) one
// point write, issued from GOMAXPROCS client goroutines. Writes contend
// on per-shard WALs and queries split per shard, so throughput scales
// with shards on multi-core hosts — this series is BENCH_4.json's
// throughput-vs-shard-count curve.
func BenchmarkShardedMixed(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			s := benchOpen(b, k)
			defer s.Close()
			var clients atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(clients.Add(1)))
				for pb.Next() {
					if rng.Intn(5) == 0 {
						q := geom.Rect{
							Lo: geom.Point{uint32(rng.Intn(480)), uint32(rng.Intn(480))},
						}
						q.Hi = geom.Point{q.Lo[0] + 31, q.Lo[1] + 31}
						if _, _, err := s.Query(q); err != nil {
							b.Fatal(err)
						}
					} else {
						pt := geom.Point{uint32(rng.Intn(512)), uint32(rng.Intn(512))}
						if err := s.Put(pt, rng.Uint64()); err != nil {
							b.Fatal(err)
						}
					}
				}
			})
		})
	}
}

// BenchmarkShardedQuery is the read-only series: concurrent 64x64
// rectangle queries against a flushed engine.
func BenchmarkShardedQuery(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			s := benchOpen(b, k)
			defer s.Close()
			var clients atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(clients.Add(1)))
				for pb.Next() {
					q := geom.Rect{
						Lo: geom.Point{uint32(rng.Intn(448)), uint32(rng.Intn(448))},
					}
					q.Hi = geom.Point{q.Lo[0] + 63, q.Lo[1] + 63}
					if _, _, err := s.Query(q); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}

// BenchmarkShardedPut is the write-only series: concurrent point writes,
// the path where per-shard WALs and memtables pay off.
func BenchmarkShardedPut(b *testing.B) {
	for _, k := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", k), func(b *testing.B) {
			c, err := core.NewOnion2D(512)
			if err != nil {
				b.Fatal(err)
			}
			s, err := Open(b.TempDir(), c, Options{
				Shards: k,
				Engine: engine.Options{FlushEntries: 1 << 16},
			})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			var clients atomic.Int64
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				rng := rand.New(rand.NewSource(clients.Add(1)))
				for pb.Next() {
					pt := geom.Point{uint32(rng.Intn(512)), uint32(rng.Intn(512))}
					if err := s.Put(pt, rng.Uint64()); err != nil {
						b.Fatal(err)
					}
				}
			})
		})
	}
}
