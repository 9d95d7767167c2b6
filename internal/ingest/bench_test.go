package ingest

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/geom"
)

// BenchmarkIngestPipeline measures durable async ingest end to end:
// every op is acknowledged only after its coalesced batch's WAL fsync,
// but each producer keeps a window of acks in flight instead of blocking
// per op — the open-loop client shape the pipeline exists for. Compare
// against BenchmarkEngineIngestSyncGroup at the same producer count: the
// delta is what batch coalescing buys over synchronous writers that
// serialize on the engine, one fsync each, at equal durability.
func BenchmarkIngestPipeline(b *testing.B) {
	for _, p := range []int{1, 4, 16, 64} {
		b.Run(fmt.Sprintf("p%d", p), func(b *testing.B) { benchPipeline(b, p) })
	}
}

func benchPipeline(b *testing.B, producers int) {
	o, err := core.NewOnion2D(1 << 9)
	if err != nil {
		b.Fatal(err)
	}
	e, err := engine.Open(b.TempDir(), o,
		engine.Options{PageBytes: 4096, FlushEntries: 1 << 15, CompactFanout: 4, SyncWrites: true})
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { e.Close() })
	p, err := NewEngine(e, Config{Ring: 1 << 14, MaxBatch: 1 << 10})
	if err != nil {
		b.Fatal(err)
	}
	const window = 256 // per-producer in-flight acks
	side := int32(o.Universe().Side())
	ctx := context.Background()
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
			win := make([]*Handle, window)
			for i := 0; i < n; i++ {
				slot := i % window
				if win[slot] != nil {
					if err := win[slot].Wait(ctx); err != nil {
						b.Error(err)
						return
					}
				}
				pt := geom.Point{uint32(rng.Int31n(side)), uint32(rng.Int31n(side))}
				h, err := p.PutAsync(ctx, pt, rng.Uint64())
				if err != nil {
					b.Error(err)
					return
				}
				win[slot] = h
			}
			for _, h := range win {
				if h != nil {
					if err := h.Wait(ctx); err != nil {
						b.Error(err)
						return
					}
				}
			}
		}(w, n)
	}
	wg.Wait()
	b.StopTimer()
	snap := p.Telemetry().Snapshot()
	if err := p.Close(); err != nil {
		b.Fatal(err)
	}
	if h := snap.Hist("ingest_batch_ops"); h != nil && h.Count > 0 {
		b.ReportMetric(h.Mean(), "ops/batch")
	}
	if h := snap.Hist("ingest_ack_latency_us"); h != nil && h.Count > 0 {
		b.ReportMetric(float64(h.Quantile(0.99)), "p99ack-us")
	}
	if n := snap.Counter("ingest_acked_total"); n > 0 {
		b.ReportMetric(float64(snap.Counter("ingest_coalesced_total"))/float64(n), "coalesced/op")
	}
}
