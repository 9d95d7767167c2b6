package onion_test

// One benchmark per table and figure of the paper (scaled-down parameters
// so `go test -bench=.` terminates quickly; run cmd/onionbench without
// -quick for paper-scale numbers) plus micro-benchmarks for the curve
// mappings, the clustering counters and range decomposition.

import (
	"testing"

	onion "github.com/onioncurve/onion"
	"github.com/onioncurve/onion/internal/cluster"
	"github.com/onioncurve/onion/internal/experiments"
)

var benchCfg = experiments.Config{Quick: true, Seed: 1, Side2D: 128, Side3D: 32, Samples2D: 20, Samples3D: 8}

func BenchmarkFig1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig1(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig2(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, _, err := experiments.Table1(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTable2(b *testing.B) {
	for i := 0; i < b.N; i++ {
		_ = experiments.Table2()
	}
}

func BenchmarkFig5a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5a(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig5b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig5b(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6a(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig6b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig6b(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7a(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7a(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig7b(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fig7b(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLemma5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Lemma5(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkThm1(b *testing.B) {
	cfg := benchCfg
	cfg.Side2D = 64
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Thm1(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLowerBounds(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.LowerBounds(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSeeks(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Seeks(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFanout(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Fanout(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationLayerOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Ablation(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSpread(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.SpreadExp(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEta(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := experiments.Eta(benchCfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- micro-benchmarks ---

func benchCurveIndex(b *testing.B, c onion.Curve) {
	u := c.Universe()
	p := make(onion.Point, u.Dims())
	dst := make(onion.Point, u.Dims())
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := uint64(i) % u.Size()
		c.Coords(h, p)
		sink += c.Index(p)
		c.Coords(sink%u.Size(), dst)
	}
	_ = sink
}

func BenchmarkCurveMap(b *testing.B) {
	o2, _ := onion.NewOnion2D(1 << 10)
	o3, _ := onion.NewOnion3D(1 << 9)
	h2, _ := onion.NewHilbert(2, 1<<10)
	h3, _ := onion.NewHilbert(3, 1<<9)
	z2, _ := onion.NewZCurve(2, 1<<10)
	g2, _ := onion.NewGrayCode(2, 1<<10)
	nd4, _ := onion.NewOnionND(4, 64)
	for _, tc := range []struct {
		name string
		c    onion.Curve
	}{
		{"onion2d-1024", o2}, {"onion3d-512", o3},
		{"hilbert2d-1024", h2}, {"hilbert3d-512", h3},
		{"zcurve2d-1024", z2}, {"gray2d-1024", g2}, {"onionnd4-64", nd4},
	} {
		b.Run(tc.name, func(b *testing.B) { benchCurveIndex(b, tc.c) })
	}
}

func BenchmarkClusterCount(b *testing.B) {
	o, _ := onion.NewOnion2D(1 << 10)
	h, _ := onion.NewHilbert(2, 1<<10)
	o3, _ := onion.NewOnion3D(1 << 8)
	q2, _ := onion.RectAt(onion.Point{30, 40}, []uint32{900, 900})
	q3, _ := onion.RectAt(onion.Point{10, 10, 10}, []uint32{200, 200, 200})
	b.Run("onion2d-900sq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := onion.ClusterCount(o, q2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hilbert2d-900sq", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := onion.ClusterCount(h, q2); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("onion3d-200cube", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := onion.ClusterCount(o3, q3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAverageClustering is the tentpole acceptance benchmark: the
// exact average clustering number of an 8x8 query over the full 1024^2
// onion universe — 2^20 curve edges per op. The "scalar" sub-benchmark is
// the retained pre-walker reference path (one full inverse mapping and one
// general GammaTranslates per edge); the default path sweeps runs/walkers
// in parallel and must beat it by >= 3x.
func BenchmarkAverageClustering(b *testing.B) {
	o, _ := onion.NewOnion2D(1 << 10)
	h2, _ := onion.NewHilbert(2, 1<<10)
	shape := []uint32{8, 8}
	b.Run("onion2d-1024", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := onion.AverageClustering(o, shape); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("onion2d-1024-scalar", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := cluster.AverageExactScalar(o, shape); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("hilbert2d-1024", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := onion.AverageClustering(h2, shape); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func BenchmarkAverageClusteringExact(b *testing.B) {
	o, _ := onion.NewOnion2D(256)
	for i := 0; i < b.N; i++ {
		if _, err := onion.AverageClustering(o, []uint32{100, 100}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWalker measures full-curve sweeps: incremental walkers versus
// one scalar Coords inversion per key.
func BenchmarkWalker(b *testing.B) {
	o2, _ := onion.NewOnion2D(1 << 10)
	o3, _ := onion.NewOnion3D(1 << 7)
	h2, _ := onion.NewHilbert(2, 1<<10)
	z2, _ := onion.NewZCurve(2, 1<<10)
	nd4, _ := onion.NewOnionND(4, 32)
	for _, tc := range []struct {
		name string
		c    onion.Curve
	}{
		{"onion2d-1024", o2}, {"onion3d-128", o3},
		{"hilbert2d-1024", h2}, {"zcurve2d-1024", z2}, {"onionnd4-32", nd4},
	} {
		n := tc.c.Universe().Size()
		b.Run(tc.name+"/walk", func(b *testing.B) {
			var sink uint32
			for i := 0; i < b.N; i++ {
				w := onion.NewWalker(tc.c, 0)
				for {
					_, p, ok := w.Next()
					if !ok {
						break
					}
					sink += p[0]
				}
			}
			_ = sink
		})
		b.Run(tc.name+"/coords", func(b *testing.B) {
			p := make(onion.Point, tc.c.Universe().Dims())
			var sink uint32
			for i := 0; i < b.N; i++ {
				for h := uint64(0); h < n; h++ {
					tc.c.Coords(h, p)
					sink += p[0]
				}
			}
			_ = sink
		})
	}
}

// BenchmarkBatch measures the batch mappings in steady state: correctly
// sized destinations must report 0 allocs/op.
func BenchmarkBatch(b *testing.B) {
	o2, _ := onion.NewOnion2D(1 << 10)
	h2, _ := onion.NewHilbert(2, 1<<10)
	z2, _ := onion.NewZCurve(2, 1<<10)
	const batch = 4096
	for _, tc := range []struct {
		name string
		c    onion.Curve
	}{{"onion2d-1024", o2}, {"hilbert2d-1024", h2}, {"zcurve2d-1024", z2}} {
		n := tc.c.Universe().Size()
		keys := make([]uint64, batch)
		for i := range keys {
			keys[i] = uint64(i*2654435761) % n
		}
		pts := onion.CoordsBatch(tc.c, keys, nil)
		dst := make([]uint64, batch)
		b.Run(tc.name+"/IndexBatch", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				onion.IndexBatch(tc.c, pts, dst)
			}
		})
		b.Run(tc.name+"/CoordsBatch", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				onion.CoordsBatch(tc.c, keys, pts)
			}
		})
	}
}

func BenchmarkDecompose(b *testing.B) {
	o, _ := onion.NewOnion2D(1 << 10)
	z, _ := onion.NewZCurve(2, 1<<10)
	q, _ := onion.RectAt(onion.Point{100, 100}, []uint32{300, 300})
	b.Run("onion", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := onion.Decompose(o, q); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("zcurve-recursive", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := onion.Decompose(z, q); err != nil {
				b.Fatal(err)
			}
		}
	})
}
