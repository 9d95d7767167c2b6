package core

// Batch fast paths for the onion curves: one validation + raw closed-form
// mapping per cell, no interface dispatch, no allocation.

import (
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
)

// IndexBatch implements curve.IndexBatcher.
func (o *Onion2D) IndexBatch(pts []geom.Point, dst []uint64) {
	s := o.U.Side()
	for i, p := range pts {
		o.CheckPoint(p)
		dst[i] = onionIndex2(s, p[0], p[1])
	}
}

// CoordsBatch implements curve.CoordsBatcher. It keeps the key span
// [lo, hi) of the last key's ring, so a key in the same ring — the common
// case for the ascending runs a store page holds — skips the square root
// that locates its ring, and the range check too: a ring's span lies
// inside the key space.
func (o *Onion2D) CoordsBatch(keys []uint64, dst []geom.Point) {
	s := o.U.Side()
	n := uint64(s) * uint64(s)
	var t uint32
	lo, hi := uint64(1), uint64(0) // empty: the first key always misses
	for i, h := range keys {
		if h < lo || h >= hi {
			if h >= n {
				o.CheckIndex(h) // panics
			}
			t = ringFromIndex2(s, h)
			lo = cellsBeforeRing2(s, t)
			hi = lo + ringLen2(s, t)
		}
		p := dst[i]
		_ = p[1]
		p[0], p[1] = ringCoords2(s, t, h-lo)
	}
}

// IndexBatch implements curve.IndexBatcher.
func (o *Onion3D) IndexBatch(pts []geom.Point, dst []uint64) {
	for i, p := range pts {
		dst[i] = o.Index(p)
	}
}

// CoordsBatch implements curve.CoordsBatcher.
func (o *Onion3D) CoordsBatch(keys []uint64, dst []geom.Point) {
	for i, h := range keys {
		o.Coords(h, dst[i])
	}
}

var (
	_ curve.IndexBatcher  = (*Onion2D)(nil)
	_ curve.CoordsBatcher = (*Onion2D)(nil)
	_ curve.IndexBatcher  = (*Onion3D)(nil)
	_ curve.CoordsBatcher = (*Onion3D)(nil)
)
