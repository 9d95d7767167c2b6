// Disk store example: bulk-load points into an engine directory whose
// one segment file is physically clustered in curve order, then run range
// queries and watch the seeks they pay on the file — the concrete version
// of the paper's "clustering number = disk seeks" argument. Readings that
// land on the same cell keep the last one, as a run of Puts would.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	onion "github.com/onioncurve/onion"
)

func main() {
	const side = 1 << 9
	dir, err := os.MkdirTemp("", "onion-diskstore")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	o, err := onion.NewOnion2D(side)
	if err != nil {
		log.Fatal(err)
	}
	h, err := onion.NewHilbert(2, side)
	if err != nil {
		log.Fatal(err)
	}

	// 200k synthetic sensor readings.
	rng := rand.New(rand.NewSource(13))
	recs := make([]onion.Record, 200_000)
	for i := range recs {
		recs[i] = onion.Record{
			Point:   onion.Point{uint32(rng.Intn(side)), uint32(rng.Intn(side))},
			Payload: uint64(i),
		}
	}

	// A large near-cube query (the regime the onion curve owns) and a
	// small one.
	big, err := onion.RectAt(onion.Point{10, 20}, []uint32{480, 480})
	if err != nil {
		log.Fatal(err)
	}
	small, err := onion.RectAt(onion.Point{200, 130}, []uint32{40, 40})
	if err != nil {
		log.Fatal(err)
	}

	for _, c := range []onion.Curve{o, h} {
		path := filepath.Join(dir, c.Name())
		if err := onion.WriteStore(path, c, recs, 4096); err != nil {
			log.Fatal(err)
		}
		eng, err := onion.OpenEngine(path, c, onion.EngineOptions{})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s table: %d records, %.1f MiB on disk\n",
			c.Name(), eng.Stats().SegmentRecords, float64(dirBytes(path))/(1<<20))
		for _, q := range []struct {
			name string
			r    onion.Rect
		}{{"480x480", big}, {"40x40", small}} {
			got, stats, err := eng.Query(q.r)
			if err != nil {
				log.Fatal(err)
			}
			// Planned is the clustering number: the key ranges the query
			// maps to. A seek is a visit to a page not next to the last
			// one, so ranges that share a page or sit on adjacent pages
			// share a seek, and seeks never exceed clusters. A page visit
			// is a binary search plus the rows it yields, so on one
			// segment and an empty memtable the records decoded are the
			// rows returned: what the curve decides is the clusters, the
			// seeks and the pages.
			fmt.Printf("  %s query: %6d rows, %4d clusters, %4d seeks, %5d pages, %7d records decoded\n",
				q.name, len(got), stats.Planned, stats.Seeks, stats.PagesRead, stats.RecordsScanned)
		}
		if err := eng.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}
	fmt.Println("same data, same file format — only the clustering curve differs")
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(dir string) int64 {
	ents, err := os.ReadDir(dir)
	if err != nil {
		log.Fatal(err)
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			log.Fatal(err)
		}
		n += info.Size()
	}
	return n
}
