package onion_test

import (
	"fmt"
	"strings"
	"testing"

	onion "github.com/onioncurve/onion"
)

func TestPublicCurveConstructors(t *testing.T) {
	type ctor struct {
		name string
		fn   func() (onion.Curve, error)
	}
	for _, c := range []ctor{
		{"onion2d", func() (onion.Curve, error) { return onion.NewOnion2D(16) }},
		{"onion3d", func() (onion.Curve, error) { return onion.NewOnion3D(8) }},
		{"onionnd", func() (onion.Curve, error) { return onion.NewOnionND(4, 8) }},
		{"layerlex", func() (onion.Curve, error) { return onion.NewLayerLex(2, 8) }},
		{"hilbert", func() (onion.Curve, error) { return onion.NewHilbert(2, 16) }},
		{"zcurve", func() (onion.Curve, error) { return onion.NewZCurve(2, 16) }},
		{"graycode", func() (onion.Curve, error) { return onion.NewGrayCode(2, 16) }},
		{"rowmajor", func() (onion.Curve, error) { return onion.NewRowMajor(2, 16) }},
		{"colmajor", func() (onion.Curve, error) { return onion.NewColumnMajor(2, 16) }},
		{"snake", func() (onion.Curve, error) { return onion.NewSnake(2, 16) }},
	} {
		cv, err := c.fn()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// Round-trip a cell through the public interface.
		p := make(onion.Point, cv.Universe().Dims())
		for i := range p {
			p[i] = 1
		}
		h := cv.Index(p)
		back := cv.Coords(h, nil)
		if !back.Equal(p) {
			t.Fatalf("%s: round trip failed", c.name)
		}
	}
}

func TestPublicClusterCountAndDecompose(t *testing.T) {
	o, err := onion.NewOnion2D(64)
	if err != nil {
		t.Fatal(err)
	}
	r, err := onion.RectAt(onion.Point{10, 10}, []uint32{20, 20})
	if err != nil {
		t.Fatal(err)
	}
	n, err := onion.ClusterCount(o, r)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := onion.Decompose(o, r)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(rs)) != n {
		t.Fatalf("decompose %d ranges vs count %d", len(rs), n)
	}
	merged, err := onion.MergeToBudget(rs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(merged.Ranges) > 2 {
		t.Fatal("budget exceeded")
	}
}

func TestPublicAverageAndBounds(t *testing.T) {
	o, _ := onion.NewOnion2D(32)
	h, _ := onion.NewHilbert(2, 32)
	u, err := onion.NewUniverse(2, 32)
	if err != nil {
		t.Fatal(err)
	}
	shape := []uint32{29, 29}
	oAvg, err := onion.AverageClustering(o, shape)
	if err != nil {
		t.Fatal(err)
	}
	hAvg, err := onion.AverageClustering(h, shape)
	if err != nil {
		t.Fatal(err)
	}
	if oAvg >= hAvg {
		t.Fatalf("onion %.2f should beat hilbert %.2f on near-full squares", oAvg, hAvg)
	}
	lbC, err := onion.LowerBoundContinuous(u, shape)
	if err != nil {
		t.Fatal(err)
	}
	lbG, err := onion.LowerBoundGeneral(u, shape)
	if err != nil {
		t.Fatal(err)
	}
	if oAvg < lbC || oAvg < lbG {
		t.Fatal("onion average below lower bound")
	}
}

func TestPublicRatios(t *testing.T) {
	_, eta2 := onion.OnionCubeRatio2D()
	_, eta3 := onion.OnionCubeRatio3D()
	if eta2 < 2.3 || eta2 > 2.33 {
		t.Fatalf("2D ratio %.3f", eta2)
	}
	if eta3 < 3.37 || eta3 > 3.41 {
		t.Fatalf("3D ratio %.3f", eta3)
	}
}

func TestPublicPartition(t *testing.T) {
	o, _ := onion.NewOnion2D(32)
	p, err := onion.UniformPartition(o, 8)
	if err != nil {
		t.Fatal(err)
	}
	r, _ := onion.RectAt(onion.Point{4, 4}, []uint32{8, 8})
	fo, err := p.FanOut(r)
	if err != nil {
		t.Fatal(err)
	}
	if fo < 1 || fo > 8 {
		t.Fatalf("fan-out = %d", fo)
	}
	wp, err := onion.WeightedPartition(o, []uint64{1, 2, 3, 500, 501}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if wp.Shards() != 2 {
		t.Fatal("weighted shards")
	}
}

func TestPublicViz(t *testing.T) {
	o, _ := onion.NewOnion2D(4)
	grid, err := onion.DrawCurve(o)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(grid, "15") {
		t.Fatalf("grid:\n%s", grid)
	}
	r, _ := onion.RectAt(onion.Point{1, 1}, []uint32{2, 2})
	pic, n, err := onion.DrawQuery(o, r)
	if err != nil {
		t.Fatal(err)
	}
	if n < 1 || !strings.Contains(pic, "a") {
		t.Fatalf("pic (n=%d):\n%s", n, pic)
	}
}

func TestIsContinuous(t *testing.T) {
	o2, _ := onion.NewOnion2D(8)
	o3, _ := onion.NewOnion3D(8)
	z, _ := onion.NewZCurve(2, 8)
	if !onion.IsContinuous(o2) {
		t.Error("onion2d continuous")
	}
	if onion.IsContinuous(o3) || onion.IsContinuous(z) {
		t.Error("onion3d/z are not continuous")
	}
}

// Example demonstrates the quickstart flow: build curves, compare their
// clustering on a query, decompose into scan ranges.
func Example() {
	o, _ := onion.NewOnion2D(8)
	h, _ := onion.NewHilbert(2, 8)
	q, _ := onion.RectAt(onion.Point{0, 1}, []uint32{7, 7})
	co, _ := onion.ClusterCount(o, q)
	ch, _ := onion.ClusterCount(h, q)
	fmt.Printf("onion: %d clusters, hilbert: %d clusters\n", co, ch)
	// Output: onion: 1 clusters, hilbert: 5 clusters
}
