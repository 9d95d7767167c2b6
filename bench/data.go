package main

import (
	"cmp"
	"math/rand"
	"slices"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
)

const (
	side      = 4096 // universe side; the curve is the 2-D onion curve
	userBytes = 16   // one point as the user sees it: 2×uint32 + uint64 payload
)

// querySides are the cube sides of the paper's query shapes. Every side
// appears as a square and as a 1:2 near-cube, in equal numbers.
var querySides = []uint32{8, 16, 32, 64, 128, 256}

// dataset is everything a run derives from -seed: the preloaded points D,
// the query list Q and the oracle the results are checked against.
type dataset struct {
	xs, ys []uint32
	pay    []uint64
	rects  []geom.Rect
	// oracle maps a cell to the payload a correct store returns for it:
	// the last put to that cell, in D's order and then in stream order.
	oracle map[uint32]uint64
}

func cellOf(x, y uint32) uint32 { return x*side + y }

// source returns the seeded source number k of a run: 0 draws D, 1 draws
// Q, 2+p draws producer p's stream. -seed reaches nothing else.
func source(seed int64, k int) *rand.Rand { return rand.New(rand.NewSource(seed<<8 | int64(k))) }

func generate(seed int64, points, queries int) *dataset {
	d := &dataset{
		xs:     make([]uint32, points),
		ys:     make([]uint32, points),
		pay:    make([]uint64, points),
		oracle: make(map[uint32]uint64, points),
	}
	rng := source(seed, 0)
	for i := range d.xs {
		d.xs[i], d.ys[i], d.pay[i] = uint32(rng.Intn(side)), uint32(rng.Intn(side)), rng.Uint64()
		d.oracle[cellOf(d.xs[i], d.ys[i])] = d.pay[i]
	}
	d.rects = generateQueries(seed, queries)
	return d
}

// curveKeys maps D through the curve, in 4096-point batches.
func curveKeys(c curve.Curve, d *dataset) []uint64 {
	const batch = 4096
	pts := make([]geom.Point, batch)
	for i := range pts {
		pts[i] = make(geom.Point, 2)
	}
	keys := make([]uint64, len(d.xs))
	for lo := 0; lo < len(keys); lo += batch {
		n := min(batch, len(keys)-lo)
		for i := 0; i < n; i++ {
			pts[i][0], pts[i][1] = d.xs[lo+i], d.ys[lo+i]
		}
		curve.IndexBatch(c, pts[:n], keys[lo:lo+n])
	}
	return keys
}

// curveOrder lists D's points in curve-key order, the order a bulk loader
// writes them in. The sort is stable, so of two puts to one cell the later
// one still comes later and wins, as the oracle assumes.
func curveOrder(c curve.Curve, d *dataset) []int32 {
	keys := curveKeys(c, d)
	order := make([]int32, len(keys))
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
	return order
}

// generateQueries draws Q stratified by shape: every (side, square|1:2)
// class gets the same number of rectangles, only their positions and their
// order in the list are random. An unstratified draw lets the share of
// 256-side queries — which cost a hundred times an 8-side one — wander with
// the seed and moves op_per_s by several percent on its own.
func generateQueries(seed int64, queries int) []geom.Rect {
	rng := source(seed, 1)
	rects := make([]geom.Rect, 0, queries)
	for i := 0; len(rects) < queries; i++ {
		w := querySides[i%len(querySides)]
		h := w
		switch i / len(querySides) % 4 { // 0,2: square; 1: wide; 3: tall
		case 1:
			h = w / 2
		case 3:
			w, h = w/2, w
		}
		lo := geom.Point{uint32(rng.Intn(int(side - w + 1))), uint32(rng.Intn(int(side - h + 1)))}
		r, err := geom.RectAt(lo, []uint32{w, h})
		if err != nil {
			panic(err) // the rectangle lies in the universe by construction
		}
		rects = append(rects, r)
	}
	rng.Shuffle(len(rects), func(i, j int) { rects[i], rects[j] = rects[j], rects[i] })
	return rects
}

// stream is one producer's seeded sequence of fresh points. Producer p of n
// writes only cells whose x ≡ p (mod n), so no two producers ever write the
// same cell and "the last acked payload" of a cell is defined by one
// producer's order alone. The payload is the producer and the position in
// its stream, which makes the stream replayable for verification.
type stream struct {
	rng  *rand.Rand
	p, n uint32
	next uint64
}

func newStream(seed int64, p, n int) *stream {
	return &stream{
		rng: source(seed, 2+p),
		p:   uint32(p), n: uint32(n),
	}
}

func (s *stream) point() (x, y uint32, payload uint64) {
	x = s.n*uint32(s.rng.Intn(side/int(s.n))) + s.p
	y = uint32(s.rng.Intn(side))
	payload = uint64(s.p+1)<<56 | s.next
	s.next++
	return x, y, payload
}
