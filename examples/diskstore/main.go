// Disk store example: bulk-load points into a real file physically
// clustered in curve order, then run range queries and watch the seeks
// they pay on the file — the concrete version of the paper's "clustering
// number = disk seeks" argument.
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
		path := filepath.Join(dir, c.Name()+".tbl")
		if err := onion.WriteStore(path, c, recs, 4096); err != nil {
			log.Fatal(err)
		}
		st, err := onion.OpenStore(path, c)
		if err != nil {
			log.Fatal(err)
		}
		info, err := os.Stat(path)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%s table: %d records, %.1f MiB on disk\n",
			c.Name(), st.Len(), float64(info.Size())/(1<<20))
		for _, q := range []struct {
			name string
			r    onion.Rect
		}{{"480x480", big}, {"40x40", small}} {
			got, stats, err := st.Query(q.r)
			if err != nil {
				log.Fatal(err)
			}
			// A page visit is a binary search plus the rows it yields, so
			// on a bare table the records decoded are the rows returned:
			// what the curve decides is the seeks and the pages.
			fmt.Printf("  %s query: %6d rows, %4d seeks, %5d pages, %7d records decoded\n",
				q.name, len(got), stats.Seeks, stats.PagesRead, stats.RecordsScanned)
		}
		st.Close()
		fmt.Println()
	}
	fmt.Println("same data, same file format — only the clustering curve differs")
}
