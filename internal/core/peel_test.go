package core

import (
	"testing"

	"github.com/onioncurve/onion/internal/geom"
)

// peel lists the cells of a side x side grid in onion order, defined
// independently of Onion2D by peeling rings: bottom row left to right,
// right column upward, top row right to left, left column downward, then
// the inset square.
func peel(side int) []geom.Point {
	var cells []geom.Point
	add := func(x, y int) { cells = append(cells, geom.Point{uint32(x), uint32(y)}) }
	for lo, hi := 0, side-1; lo <= hi; lo, hi = lo+1, hi-1 {
		for x := lo; x <= hi; x++ {
			add(x, lo)
		}
		for y := lo + 1; y <= hi; y++ {
			add(hi, y)
		}
		for x := hi - 1; x >= lo; x-- {
			add(x, hi)
		}
		for y := hi - 1; y > lo; y-- {
			add(lo, y)
		}
	}
	return cells
}

// TestOnion2DMatchesRingPeeling golden-tests Onion2D against peel on every
// side 1..33, odd sides included: Coords(k) is the peel's k-th cell and
// Index is its inverse.
func TestOnion2DMatchesRingPeeling(t *testing.T) {
	for side := 1; side <= 33; side++ {
		o, err := NewOnion2D(uint32(side))
		if err != nil {
			t.Fatal(err)
		}
		cells := peel(side)
		if uint64(len(cells)) != o.Universe().Size() {
			t.Fatalf("side %d: peel lists %d cells, want %d", side, len(cells), o.Universe().Size())
		}
		for k, p := range cells {
			if got := o.Coords(uint64(k), nil); !got.Equal(p) {
				t.Fatalf("side %d: Coords(%d) = %v, peel says %v", side, k, got, p)
			}
			if got := o.Index(p); got != uint64(k) {
				t.Fatalf("side %d: Index(%v) = %d, want %d", side, p, got, k)
			}
		}
	}
}
