package core

import (
	"encoding/binary"
	"math/rand"
	"testing"

	"github.com/onioncurve/onion/internal/geom"
)

// checkCoordsBatch asserts that Onion2D.CoordsBatch equals a per-key
// Coords on keys.
func checkCoordsBatch(t *testing.T, o *Onion2D, name string, keys []uint64) {
	t.Helper()
	dst := make([]geom.Point, len(keys))
	for i := range dst {
		dst[i] = make(geom.Point, 2)
	}
	o.CoordsBatch(keys, dst)
	want := make(geom.Point, 2)
	for i, h := range keys {
		o.Coords(h, want)
		if !dst[i].Equal(want) {
			t.Fatalf("side %d, %s: CoordsBatch[%d] (key %d) = %v, Coords = %v",
				o.Universe().Side(), name, i, h, dst[i], want)
		}
	}
}

// TestOnion2DCoordsBatchMatchesCoords pins the ring-caching batch inverse
// to the scalar one: on ascending runs that cross ring boundaries (the
// ring cache hits and then must notice the crossing), on unsorted keys
// (it must miss backwards as well as forwards) and on repeated keys.
func TestOnion2DCoordsBatchMatchesCoords(t *testing.T) {
	sides := []uint32{4096}
	for s := uint32(1); s <= 33; s++ {
		sides = append(sides, s)
	}
	for _, side := range sides {
		o, err := NewOnion2D(side)
		if err != nil {
			t.Fatal(err)
		}
		n := o.Universe().Size()
		rng := rand.New(rand.NewSource(int64(side)))

		// Sorted: every key of a small square, then ascending strided runs
		// ending on the last key (the centre cell of an odd side).
		var sorted []uint64
		if n <= 33*33 {
			for h := uint64(0); h < n; h++ {
				sorted = append(sorted, h)
			}
		}
		for _, stride := range []uint64{1, 3, 17, n/7 + 1} {
			for h := uint64(0); h < n; h += stride {
				sorted = append(sorted, h)
			}
			sorted = append(sorted, n-1)
		}
		checkCoordsBatch(t, o, "sorted", sorted)

		unsorted := make([]uint64, 500)
		for i := range unsorted {
			unsorted[i] = uint64(rng.Int63n(int64(n)))
		}
		unsorted = append(unsorted, n-1, 0, n-1, n/2, 0)
		checkCoordsBatch(t, o, "unsorted", unsorted)

		var repeated []uint64
		for i := 0; i < 50; i++ {
			h := uint64(rng.Int63n(int64(n)))
			for r := 0; r <= i%4; r++ {
				repeated = append(repeated, h)
			}
		}
		checkCoordsBatch(t, o, "repeated", repeated)

		// Past the key space, right after the last ring's keys: the ring
		// cache misses and the batch panics as Coords does.
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("side %d: CoordsBatch of key %d did not panic", side, n)
				}
			}()
			dst := []geom.Point{make(geom.Point, 2), make(geom.Point, 2)}
			o.CoordsBatch([]uint64{n - 1, n}, dst)
		}()
	}
}

// FuzzCoordsBatch checks CoordsBatch against per-key Coords on arbitrary
// key sequences: the first byte picks a side in [1, 64], each following
// pair of bytes is a key modulo side².
func FuzzCoordsBatch(f *testing.F) {
	f.Add([]byte{7, 0, 0, 0, 1, 0, 2, 0, 48})
	f.Add([]byte{63, 0xff, 0xff, 0, 0, 0x10, 0})
	f.Add([]byte{0})
	f.Fuzz(func(t *testing.T, b []byte) {
		if len(b) == 0 {
			return
		}
		o, err := NewOnion2D(uint32(b[0])%64 + 1)
		if err != nil {
			t.Fatal(err)
		}
		n := o.Universe().Size()
		var keys []uint64
		for rest := b[1:]; len(rest) >= 2; rest = rest[2:] {
			keys = append(keys, uint64(binary.LittleEndian.Uint16(rest))%n)
		}
		checkCoordsBatch(t, o, "fuzz", keys)
	})
}

// BenchmarkOnion2DCoordsBatch decodes what one 4 KiB store page holds at
// the bench/ harness's density: 256 ascending keys, one per ~33 cells of a
// 4096² universe, from the middle of the key space.
func BenchmarkOnion2DCoordsBatch(b *testing.B) {
	o, err := NewOnion2D(4096)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	keys := make([]uint64, 256)
	h := o.Universe().Size() / 3
	for i := range keys {
		keys[i] = h
		h += 1 + uint64(rng.Intn(66))
	}
	flat := make([]uint32, 2*len(keys))
	dst := make([]geom.Point, len(keys))
	for i := range dst {
		dst[i] = flat[2*i : 2*i+2 : 2*i+2]
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		o.CoordsBatch(keys, dst)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(keys)), "ns/key")
}
