package onion_test

// Godoc examples for the main public APIs.

import (
	"fmt"
	"os"
	"path/filepath"

	onion "github.com/onioncurve/onion"
)

func ExampleNewOnion2D() {
	o, _ := onion.NewOnion2D(4)
	// The onion curve orders the boundary ring first, then recurses
	// inward (Figure 3 of the paper).
	fmt.Println(o.Index(onion.Point{0, 0}), o.Index(onion.Point{3, 0}), o.Index(onion.Point{1, 1}))
	// Output: 0 3 12
}

func ExampleClusterCount() {
	o, _ := onion.NewOnion2D(1024)
	h, _ := onion.NewHilbert(2, 1024)
	q, _ := onion.RectAt(onion.Point{25, 40}, []uint32{974, 974})
	co, _ := onion.ClusterCount(o, q)
	ch, _ := onion.ClusterCount(h, q)
	fmt.Printf("onion needs %d scans, hilbert %d\n", co, ch)
	// Output: onion needs 30 scans, hilbert 939
}

func ExampleDecompose() {
	z, _ := onion.NewZCurve(2, 8)
	q, _ := onion.RectAt(onion.Point{1, 1}, []uint32{2, 2})
	rs, _ := onion.Decompose(z, q)
	for _, r := range rs {
		fmt.Println(r)
	}
	// Output:
	// [3,3]
	// [6,6]
	// [9,9]
	// [12,12]
}

func ExampleAverageClustering() {
	o, _ := onion.NewOnion2D(64)
	// Exact mean clustering number over ALL translates of a 2x2 query:
	// the classic surface/(2d) = 2 asymptotic.
	avg, _ := onion.AverageClustering(o, []uint32{2, 2})
	fmt.Printf("%.3f\n", avg)
	// Output: 2.000
}

func ExampleWriteStore() {
	dir, _ := os.MkdirTemp("", "onion-example")
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "points.tbl")

	o, _ := onion.NewOnion2D(64)
	recs := []onion.Record{
		{Point: onion.Point{1, 2}, Payload: 100},
		{Point: onion.Point{50, 60}, Payload: 200},
		{Point: onion.Point{3, 2}, Payload: 300},
	}
	if err := onion.WriteStore(path, o, recs, 4096); err != nil {
		fmt.Println(err)
		return
	}
	st, _ := onion.OpenStore(path, o)
	defer st.Close()
	q, _ := onion.RectAt(onion.Point{0, 0}, []uint32{10, 10})
	got, stats, _ := st.Query(q)
	fmt.Printf("%d records, %d seek(s)\n", len(got), stats.Seeks)
	// Output: 2 records, 1 seek(s)
}

func ExampleUniformPartition() {
	o, _ := onion.NewOnion2D(16)
	p, _ := onion.UniformPartition(o, 4)
	q, _ := onion.RectAt(onion.Point{0, 0}, []uint32{16, 16})
	fanout, _ := p.FanOut(q)
	fmt.Printf("the whole universe touches all %d shards\n", fanout)
	// Output: the whole universe touches all 4 shards
}

func ExampleDrawCurve() {
	o, _ := onion.NewOnion2D(4)
	grid, _ := onion.DrawCurve(o)
	fmt.Print(grid)
	// Output:
	//  9  8  7  6
	// 10 15 14  5
	// 11 12 13  4
	//  0  1  2  3
}

func ExampleClusterSpread() {
	o, _ := onion.NewOnion2D(64)
	// An off-center query cuts an arc out of many onion rings: few
	// clusters, but spread across the key space.
	q, _ := onion.RectAt(onion.Point{4, 4}, []uint32{16, 16})
	sp, _ := onion.ClusterSpread(o, q)
	fmt.Printf("clusters=%d gaps=%d\n", sp.Clusters, sp.GapCells)
	// Output: clusters=16 gaps=2205
}
