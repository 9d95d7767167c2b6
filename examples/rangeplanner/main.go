// Range planner example: trade seeks for extra scanned cells by merging a
// query's cluster ranges under a seek budget — the superset-query model of
// Asano et al. discussed in the paper's related work — and decompose
// paper-scale queries (10^8+ cells) through the analytic output-sensitive
// planners, which no enumeration-based strategy could touch.
package main

import (
	"fmt"
	"log"
	"time"

	onion "github.com/onioncurve/onion"
)

func main() {
	const side = 1 << 8

	z, err := onion.NewZCurve(2, side)
	if err != nil {
		log.Fatal(err)
	}
	o, err := onion.NewOnion2D(side)
	if err != nil {
		log.Fatal(err)
	}

	// A mid-grid query fragments badly on the Z curve.
	q, err := onion.RectAt(onion.Point{100, 100}, []uint32{60, 60})
	if err != nil {
		log.Fatal(err)
	}

	for _, c := range []onion.Curve{z, o} {
		rs, err := onion.Decompose(c, q)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s: exact decomposition = %d ranges covering %d cells\n",
			c.Name(), len(rs), q.Cells())
		for _, budget := range []int{1, 4, 16, 64} {
			if budget >= len(rs) {
				continue
			}
			m, err := onion.MergeToBudget(rs, budget)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf("  budget %3d: %3d ranges, +%7d extra cells\n",
				budget, len(m.Ranges), m.ExtraCells)
		}
		fmt.Println()
	}
	fmt.Println("the onion curve needs no budget tricks: its decomposition is already small")
	fmt.Println()
	paperScale()
}

// paperScale decomposes Figure 5b sized queries. The 3D onion universe
// below holds 2^30 cells and the query covers ~10^9 of them; the analytic
// planner answers in microseconds because its cost scales with the number
// of clusters, not the query surface.
func paperScale() {
	o2, err := onion.NewOnion2D(1 << 15)
	if err != nil {
		log.Fatal(err)
	}
	o3, err := onion.NewOnion3D(1 << 10)
	if err != nil {
		log.Fatal(err)
	}
	queries := []struct {
		name string
		c    onion.Curve
		r    onion.Rect
	}{
		{"onion2d 32752^2 inset", o2, mustRect(onion.Point{8, 8}, onion.Point{1<<15 - 9, 1<<15 - 9})},
		{"onion2d 16384^2 offset", o2, mustRect(onion.Point{8192, 9192}, onion.Point{24575, 25575})},
		{"onion3d 1008^3 inset", o3, mustRect(onion.Point{8, 8, 8}, onion.Point{1015, 1015, 1015})},
	}
	fmt.Println("paper-scale decomposition through the analytic planners:")
	for _, q := range queries {
		start := time.Now()
		rs, err := onion.Decompose(q.c, q.r)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-24s %14d cells -> %6d ranges in %s\n",
			q.name, q.r.Cells(), len(rs), time.Since(start).Round(time.Microsecond))
	}
}

func mustRect(lo, hi onion.Point) onion.Rect {
	r, err := onion.NewRect(lo, hi)
	if err != nil {
		log.Fatal(err)
	}
	return r
}
