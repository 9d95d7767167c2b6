// Package core implements the paper's primary contribution: the onion
// curve in two dimensions (Section III), in three dimensions (Section VI),
// the natural d-dimensional generalization the paper sketches as future
// work (Section VIII), and a layer-lexicographic ablation curve used to
// demonstrate that the precise within-layer order is immaterial to the
// clustering behaviour.
//
// All onion-family curves share the defining property the paper identifies
// as the source of near-optimal clustering: cells are ordered by layers,
// where the layer of a cell is its L-infinity distance to the boundary of
// the universe, and each layer is numbered completely before the next
// begins ("organize different layers sequentially rather than intercross
// them", Section VI-A).
package core

import (
	"fmt"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
)

// Onion2D is the two-dimensional onion curve of Section III-A. It orders
// the cells of the boundary ring first (counter-clockwise starting from the
// bottom-left corner, per the paper's five-case definition), then recurses
// into the (side-2)x(side-2) interior. It is continuous and supports any
// side length >= 1 (the paper assumes an even side; odd sides simply end in
// a 1x1 center).
type Onion2D struct {
	curve.Base
}

// NewOnion2D constructs the two-dimensional onion curve.
func NewOnion2D(side uint32) (*Onion2D, error) {
	u, err := geom.NewUniverse(2, side)
	if err != nil {
		return nil, fmt.Errorf("onion2d: %w", err)
	}
	return &Onion2D{Base: curve.Base{U: u, Id: "onion", Cont: true}}, nil
}

// Index implements curve.Curve using the closed form: the ring of a cell is
// t = min(x, s-1-x, y, s-1-y), rings 0..t-1 hold 4*t*(s-t) cells, and the
// paper's five-case formula resolves the position within the ring.
func (o *Onion2D) Index(p geom.Point) uint64 {
	o.CheckPoint(p)
	return onionIndex2(o.U.Side(), p[0], p[1])
}

// Coords implements curve.Curve.
func (o *Onion2D) Coords(h uint64, dst geom.Point) geom.Point {
	o.CheckIndex(h)
	p := curve.Dst(dst, 2)
	p[0], p[1] = onionCoords2(o.U.Side(), h)
	return p
}

// Ring returns the 0-based ring number of cell p (the paper's layer number
// minus one): its L-infinity distance to the universe boundary.
func (o *Onion2D) Ring(p geom.Point) uint32 {
	o.CheckPoint(p)
	return ringOf2(o.U.Side(), p[0], p[1])
}

func ringOf2(s, x, y uint32) uint32 {
	t := x
	if s-1-x < t {
		t = s - 1 - x
	}
	if y < t {
		t = y
	}
	if s-1-y < t {
		t = s - 1 - y
	}
	return t
}

// cellsBeforeRing2 returns the number of cells in rings 0..t-1 of an s-side
// square: 4*t*(s-t).
func cellsBeforeRing2(s, t uint32) uint64 {
	return 4 * uint64(t) * uint64(s-t)
}

// onionIndex2 is the raw forward mapping on an s x s square, usable on
// sub-squares by the 3D curve.
func onionIndex2(s, x, y uint32) uint64 {
	t := ringOf2(s, x, y)
	base := cellsBeforeRing2(s, t)
	j := s - 2*t // ring side
	if j == 1 {
		return base
	}
	a, b := x-t, y-t // local coordinates on the ring, in [0, j-1]
	jm := uint64(j - 1)
	switch {
	case b == 0:
		return base + uint64(a)
	case a == uint32(jm):
		return base + jm + uint64(b)
	case b == uint32(jm):
		return base + 3*jm - uint64(a)
	default: // a == 0, 1 <= b <= j-2
		return base + 4*jm - uint64(b)
	}
}

// onionCoords2 inverts onionIndex2.
func onionCoords2(s uint32, h uint64) (x, y uint32) {
	t := ringFromIndex2(s, h)
	return ringCoords2(s, t, h-cellsBeforeRing2(s, t))
}

// ringLen2 returns the number of cells on ring t of an s-side square: the
// perimeter 4*(j-1) of its side j = s-2t, or 1 for the centre cell of an
// odd side.
func ringLen2(s, t uint32) uint64 {
	if j := s - 2*t; j > 1 {
		return 4 * uint64(j-1)
	}
	return 1
}

// ringCoords2 places the cell at offset r along ring t, the position the
// paper's five cases number counter-clockwise from the ring's bottom-left
// corner.
func ringCoords2(s, t uint32, r uint64) (x, y uint32) {
	j := s - 2*t
	if j == 1 {
		return t, t
	}
	jm := uint64(j - 1)
	var a, b uint64
	switch {
	case r <= jm:
		a, b = r, 0
	case r <= 2*jm:
		a, b = jm, r-jm
	case r <= 3*jm:
		a, b = 3*jm-r, jm
	default:
		a, b = 0, 4*jm-r
	}
	return uint32(a) + t, uint32(b) + t
}

// ringFromIndex2 returns the ring t with cellsBefore(t) <= h <
// cellsBefore(t+1), entirely in integer arithmetic: 4t(s-t) <= h is
// equivalent to (s-2t)^2 >= s^2-h, so t follows from the ceiling square
// root of s^2-h rounded up to the parity of s.
func ringFromIndex2(s uint32, h uint64) uint32 {
	d := uint64(s)*uint64(s) - h // >= 1 because h < s^2
	w := curve.Isqrt(d)
	if w*w < d {
		w++ // ceil(sqrt(d))
	}
	if (uint64(s)-w)&1 == 1 {
		w++ // ring sides share the parity of s
	}
	t := (uint64(s) - w) / 2
	maxT := uint64(s-1) / 2
	if t > maxT {
		t = maxT
	}
	return uint32(t)
}

var _ curve.Curve = (*Onion2D)(nil)
