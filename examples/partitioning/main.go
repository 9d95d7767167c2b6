// Partitioning example: shard a spatial data set across workers by curve
// key ranges (the paper intro's distributed-partitioning motivation) and
// measure both load balance and query fan-out per curve.
package main

import (
	"fmt"
	"log"
	"math/rand"

	onion "github.com/onioncurve/onion"
)

func main() {
	const (
		side    = 1 << 9
		workers = 16
		nPoints = 40000
		queries = 200
	)

	o, err := onion.NewOnion2D(side)
	if err != nil {
		log.Fatal(err)
	}
	h, err := onion.NewHilbert(2, side)
	if err != nil {
		log.Fatal(err)
	}
	z, err := onion.NewZCurve(2, side)
	if err != nil {
		log.Fatal(err)
	}

	// Skewed data: most points in one hot region.
	rng := rand.New(rand.NewSource(3))
	pts := make([]onion.Point, 0, nPoints)
	for i := 0; i < nPoints; i++ {
		if rng.Float64() < 0.7 {
			pts = append(pts, onion.Point{
				uint32(50 + rng.Intn(side/4)),
				uint32(50 + rng.Intn(side/4)),
			})
		} else {
			pts = append(pts, onion.Point{
				uint32(rng.Intn(side)),
				uint32(rng.Intn(side)),
			})
		}
	}

	fmt.Printf("%-8s %12s %12s %12s\n", "curve", "max load", "ideal", "avg fan-out")
	for _, c := range []onion.Curve{o, h, z} {
		keys := make([]uint64, len(pts))
		for i, p := range pts {
			keys[i] = c.Index(p)
		}
		part, err := onion.WeightedPartition(c, keys, workers)
		if err != nil {
			log.Fatal(err)
		}
		maxLoad := 0
		for _, l := range part.Loads(keys) {
			if l > maxLoad {
				maxLoad = l
			}
		}
		// Fan-out of medium rectangles: how many workers must answer?
		qrng := rand.New(rand.NewSource(11))
		var fanout float64
		for i := 0; i < queries; i++ {
			w := uint32(qrng.Intn(side/4) + 4)
			ht := uint32(qrng.Intn(side/4) + 4)
			q, err := onion.RectAt(onion.Point{
				uint32(qrng.Intn(side - int(w))),
				uint32(qrng.Intn(side - int(ht))),
			}, []uint32{w, ht})
			if err != nil {
				log.Fatal(err)
			}
			fo, err := part.FanOut(q)
			if err != nil {
				log.Fatal(err)
			}
			fanout += float64(fo)
		}
		fmt.Printf("%-8s %12d %12d %12.2f\n",
			c.Name(), maxLoad, len(pts)/workers, fanout/queries)
	}
	fmt.Println("\nlower fan-out = fewer workers per query; max load ~ ideal = balanced shards")
	fmt.Println("note: onion clusters sit on distant layers of the key space, so mid-size")
	fmt.Println("queries touch more shards — the inter-cluster-distance effect the paper's")
	fmt.Println("conclusion lists as future work; its clustering-count advantage appears on")
	fmt.Println("large near-cube queries (see examples/diskstore)")
}
