package pagedstore

import (
	"encoding/binary"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
)

// seekCase is one generated input of FuzzCursorSeek: a key-sorted record
// multiset (payload = position, so equal keys stay told apart), its marks,
// the page size, and an ascending disjoint range list.
type seekCase struct {
	keys      []uint64
	recs      []Record
	marks     []bool
	pageBytes int
	krs       []curve.KeyRange
}

// genSeekCase derives a case from the fuzz arguments. Keys come from the
// middle of the key space, so ranges can fall before the first and after
// the last one; every so often a key repeats for up to three pages' worth
// of records, so runs of duplicates straddle page boundaries; n is free, so
// the last page is usually partial. Ranges advance by a gap of zero (the
// next range starts on the key after the previous one ended — the two
// share a page), a few keys, or a few pages, and span one key (lo == hi),
// a few keys, or a few pages.
func genSeekCase(o curve.Curve, seed int64, n uint16, perPage uint8) seekCase {
	rng := rand.New(rand.NewSource(seed))
	size := o.Universe().Size()
	per := int(perPage)%12 + 1
	cs := seekCase{pageBytes: per*recordSize + rng.Intn(recordSize)}

	count := int(n) % 1500
	stride := uint64(1)
	if count > 0 {
		stride = max((size*3/4)/uint64(count), 1)
	}
	key := size / 8
	pt := make(geom.Point, 2)
	for len(cs.keys) < count && key < size*7/8 {
		reps := 1
		if rng.Intn(6) == 0 {
			reps = 1 + rng.Intn(3*per)
		}
		for ; reps > 0 && len(cs.keys) < count; reps-- {
			o.Coords(key, pt)
			cs.recs = append(cs.recs, Record{Point: pt.Clone(), Payload: uint64(len(cs.keys))})
			cs.marks = append(cs.marks, rng.Intn(5) == 0)
			cs.keys = append(cs.keys, key)
		}
		key += 1 + uint64(rng.Int63n(int64(2*stride)))
	}

	step := func() uint64 {
		switch rng.Intn(3) {
		case 0:
			return 0
		case 1:
			return uint64(rng.Int63n(int64(4 * stride)))
		}
		return uint64(rng.Int63n(int64(4 * stride * uint64(per))))
	}
	for lo := step(); ; {
		hi := lo + step()
		if hi >= size {
			break
		}
		cs.krs = append(cs.krs, curve.KeyRange{Lo: lo, Hi: hi})
		lo = hi + 1 + step()
	}
	return cs
}

// walkRanges drives one pooled cursor over krs, hands every record it
// yields to fn (nil discards them), and returns the cursor's tallies. It
// reports errors instead of failing a test, so goroutines can call it.
func walkRanges(s *Store, krs []curve.KeyRange, fn func(kr curve.KeyRange, e *Entry)) (Stats, IOStats, error) {
	cur := s.AcquireCursor()
	defer cur.Release()
	var e Entry
	for _, kr := range krs {
		cur.SeekRange(kr)
		for {
			ok, err := cur.NextInto(&e)
			if err != nil {
				return cur.Stats(), cur.IO(), err
			}
			if !ok {
				break
			}
			if fn != nil {
				fn(kr, &e)
			}
		}
	}
	return cur.Stats(), cur.IO(), nil
}

// FuzzCursorSeek pins the in-page seek of the cursor — lower-bound lo,
// stop at the first key past hi — against two oracles that walk linearly:
// a brute-force filter of the input for the records, and referenceRanges
// for the page walk. The file is opened bare, behind a cache that holds
// everything, and behind a cache of one page a shard; all three openings
// must return the input's in-range records in order with their keys and
// marks, pay the reference's Seeks and PagesRead, and report exactly the
// in-range record count as RecordsScanned. Its seed corpus is the property
// test plain `go test` runs.
func FuzzCursorSeek(f *testing.F) {
	for seed := int64(0); seed < 48; seed++ {
		f.Add(seed, uint16(37*seed), uint8(seed))
	}
	f.Add(int64(-1), uint16(0), uint8(0)) // empty store
	f.Add(int64(-2), uint16(1), uint8(0)) // one record, one record a page
	o, err := core.NewOnion2D(64)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, seed int64, n uint16, perPage uint8) {
		cs := genSeekCase(o, seed, n, perPage)
		path := filepath.Join(t.TempDir(), "seek.pst")
		writeMarked(t, path, o, cs.recs, cs.marks, cs.pageBytes)

		// Brute force: the input is in key order and its payloads are its
		// positions, so filtering it range by range is the expected output.
		var want []uint64
		for _, kr := range cs.krs {
			for i, key := range cs.keys {
				if key >= kr.Lo && key <= kr.Hi {
					want = append(want, uint64(i))
				}
			}
		}
		bare, err := Open(path, o)
		if err != nil {
			t.Fatal(err)
		}
		refRecs, ref, err := referenceRanges(bare, cs.krs)
		bare.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(refRecs) != len(want) || ref.RecordsScanned != len(want) {
			t.Fatalf("reference: %d records, %d scanned, brute force has %d", len(refRecs), ref.RecordsScanned, len(want))
		}

		for _, cache := range []struct {
			name  string
			bytes int64
		}{{"bare", 0}, {"ample cache", 64 << 20}, {"one-page shards", int64(cacheShardCount * cs.pageBytes)}} {
			var pc *Cache
			if cache.bytes > 0 {
				pc = NewCache(cache.bytes)
			}
			s, err := OpenCached(path, o, pc)
			if err != nil {
				t.Fatalf("%s: %v", cache.name, err)
			}
			// Twice: the second pass meets whatever the first left cached.
			for pass := 0; pass < 2; pass++ {
				got := 0
				st, io, err := walkRanges(s, cs.krs, func(kr curve.KeyRange, e *Entry) {
					if key := o.Index(e.Point); key != e.Key || key < kr.Lo || key > kr.Hi {
						t.Fatalf("%s pass %d, range %v: record %v has key %d, cursor says %d", cache.name, pass, kr, e.Point, key, e.Key)
					}
					if got < len(want) {
						i := want[got]
						if e.Payload != i || e.Marked != cs.marks[i] {
							t.Fatalf("%s pass %d: record %d is input %d (marked %v), want input %d", cache.name, pass, got, e.Payload, e.Marked, i)
						}
					}
					got++
				})
				if err != nil {
					t.Fatalf("%s pass %d: %v", cache.name, pass, err)
				}
				if got != len(want) {
					t.Fatalf("%s pass %d: %d records, brute force has %d", cache.name, pass, got, len(want))
				}
				if st != ref {
					t.Fatalf("%s pass %d: stats %+v, reference %+v", cache.name, pass, st, ref)
				}
				if io.PagesFetched+io.CacheHits > st.PagesRead || (pc == nil && io.CacheHits != 0) {
					t.Fatalf("%s pass %d: io %+v for %d logical page reads", cache.name, pass, io, st.PagesRead)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestLowerBoundMatchesLinearScan pins the interpolating in-page search to
// a linear scan: on evenly spread, clustered and duplicate-heavy pages of
// every size up to a 4 KiB page's 256 slots, for bounds before, inside and
// after the keys, and with first/last hints that are exact, swapped or
// unrelated to the page — a wrong hint may cost time, never the answer.
func TestLowerBoundMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 3000; trial++ {
		n := 1 + rng.Intn(256)
		keys := make([]uint64, n)
		k := uint64(rng.Intn(1000))
		for i := range keys {
			switch trial % 3 {
			case 0: // evenly spread
				k += uint64(1 + rng.Intn(60))
			case 1: // a dense cluster, then a jump
				if rng.Intn(20) == 0 {
					k += uint64(rng.Intn(1 << 20))
				} else {
					k += uint64(rng.Intn(2))
				}
			default: // long runs of one key
				if rng.Intn(40) == 0 {
					k += uint64(1 + rng.Intn(5))
				}
			}
			keys[i] = k
		}
		page := make([]byte, n*recordSize)
		for i, k := range keys {
			binary.LittleEndian.PutUint64(page[i*recordSize:], k)
		}
		first, last := keys[0], keys[n-1]
		hints := [][2]uint64{{first, last}, {last, first}, {0, ^uint64(0)}, {first, first}, {rng.Uint64(), rng.Uint64()}}
		for q := 0; q < 20; q++ {
			lo := first - 2 + uint64(rng.Int63n(int64(last-first)+5))
			if q == 0 {
				lo = 0
			}
			want := 0
			for want < n && keys[want] < lo {
				want++
			}
			for _, h := range hints {
				if got := lowerBound(page, n, lo, h[0], h[1]); got != want {
					t.Fatalf("trial %d: lowerBound(lo %d, hint %v) = %d, want %d (keys %v)", trial, lo, h, got, want, keys)
				}
			}
		}
	}
}
