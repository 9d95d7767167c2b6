package pagedstore

import (
	"encoding/binary"
	"io"
	"math/rand"
	"path/filepath"
	"testing"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/ranges"
	"github.com/onioncurve/onion/internal/vfs"
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
	stride := max(size/4096, 1) // with no keys, still a few thousand ranges at most
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
	cur.Plan(krs)
	for k := 0; cur.NextRange(); k++ {
		for {
			ok, err := cur.NextInto(&e)
			if err != nil {
				return cur.Stats(), cur.IO(), err
			}
			if !ok {
				break
			}
			if fn != nil {
				fn(krs[k], &e)
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
// in-range record count as RecordsScanned. The physical I/O is held to the
// reference's own walk: with nothing resident (bare, and the ample cache's
// first pass) the cursor fetches exactly the pages that walk fetches, in
// exactly its runs, and on the ample cache's second pass it reads nothing.
// With wide set, the keys come from a curve of 2⁴⁰ keys, so they are
// sparse enough that the writer often starts a page before it is full: the
// next key lies 2³² or more past the page's first. Its seed corpus is the
// property test plain `go test` runs.
func FuzzCursorSeek(f *testing.F) {
	for seed := int64(0); seed < 48; seed++ {
		f.Add(seed, uint16(37*seed), uint8(seed), false)
	}
	f.Add(int64(-1), uint16(0), uint8(0), false) // empty store
	f.Add(int64(-2), uint16(1), uint8(0), false) // one record, one record a page
	for seed := int64(0); seed < 16; seed++ {
		f.Add(seed, uint16(91*seed+40), uint8(seed+4), true)
	}
	narrow, err := core.NewOnion2D(64)
	if err != nil {
		f.Fatal(err)
	}
	wideCurve, err := core.NewOnion2D(1 << 20)
	if err != nil {
		f.Fatal(err)
	}
	const ampleBytes = 64 << 20 // never full: every miss is admitted
	f.Fuzz(func(t *testing.T, seed int64, n uint16, perPage uint8, wide bool) {
		o := narrow
		if wide {
			o = wideCurve
		}
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
		refRecs, ref, refIO, err := referenceRanges(bare, cs.krs)
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
		}{{"bare", 0}, {"ample cache", ampleBytes}, {"one-page shards", int64(cacheShardCount * cs.pageBytes)}} {
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
				if io.PagesFetched+io.CacheHits > st.PagesRead || io.ReadCalls > io.PagesFetched || (pc == nil && io.CacheHits != 0) {
					t.Fatalf("%s pass %d: io %+v for %d logical page reads", cache.name, pass, io, st.PagesRead)
				}
				// With nothing resident the cursor fetches exactly the pages
				// the reference walk says a bare store fetches, in exactly
				// its runs; with everything resident it reads nothing.
				ample := cache.bytes == ampleBytes
				switch {
				case pc == nil || (ample && pass == 0):
					if io.PagesFetched != refIO.PagesFetched || io.ReadCalls != refIO.ReadCalls {
						t.Fatalf("%s pass %d: io %+v, reference walk fetches %d pages in %d reads",
							cache.name, pass, io, refIO.PagesFetched, refIO.ReadCalls)
					}
				case ample:
					if io.PagesFetched != 0 || io.ReadCalls != 0 || io.CacheHits != refIO.PagesFetched {
						t.Fatalf("%s pass %d: io %+v, want every one of %d pages a hit",
							cache.name, pass, io, refIO.PagesFetched)
					}
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
		}
	})
}

// TestLowerBoundMatchesLinearScan pins the interpolating in-page search to
// a linear scan over v7 pages — each slot the key's 32-bit offset from the
// page's first key: on evenly spread, clustered, duplicate-heavy and
// 2³²-wide pages of every size up to a 4 KiB page's 341 slots, for bounds
// before, inside and after the keys, and with last-key hints that are
// exact, before the first key or unrelated to the page — a wrong hint may
// cost time, never the answer.
func TestLowerBoundMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.Intn(341)
		keys := make([]uint64, n)
		k := rng.Uint64() >> 24
		for i := range keys {
			switch trial % 4 {
			case 0: // evenly spread
				k += uint64(1 + rng.Intn(60))
			case 1: // a dense cluster, then a jump
				if rng.Intn(20) == 0 {
					k += uint64(rng.Intn(1 << 20))
				} else {
					k += uint64(rng.Intn(2))
				}
			case 2: // long runs of one key
				if rng.Intn(40) == 0 {
					k += uint64(1 + rng.Intn(5))
				}
			default: // offsets up to the top of their 32 bits
				if i > 0 {
					k += uint64(rng.Int63n((pageSpan - 1) / int64(n)))
				}
			}
			keys[i] = k
		}
		first, last := keys[0], keys[n-1]
		page := make([]byte, n*recordSize)
		for i, k := range keys {
			binary.LittleEndian.PutUint32(page[i*recordSize:], uint32(k-first))
		}
		hints := []uint64{last, first, first - 1, ^uint64(0), rng.Uint64()}
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
				if got := lowerBound(page, n, lo, first, h); got != want {
					t.Fatalf("trial %d: lowerBound(lo %d, first %d, last hint %d) = %d, want %d (keys %v)", trial, lo, first, h, got, want, keys)
				}
			}
		}
	}
}

// spyFS is the OS file system with a view of the positioned reads of the
// files it opens: it counts the calls and the bytes they return. With cut
// > 0, a read asking for more than cut bytes returns the first cut and
// io.ErrUnexpectedEOF, as a file torn short would.
type spyFS struct {
	vfs.OS
	calls, bytes int
	cut          int
}

type spyFile struct {
	vfs.File
	fs *spyFS
}

func (fs *spyFS) Open(name string) (vfs.File, error) {
	f, err := fs.OS.Open(name)
	if err != nil {
		return nil, err
	}
	return spyFile{f, fs}, nil
}

func (f spyFile) ReadAt(p []byte, off int64) (int, error) {
	var n int
	var err error
	if f.fs.cut > 0 && len(p) > f.fs.cut {
		if n, err = f.File.ReadAt(p[:f.fs.cut], off); err == nil {
			err = io.ErrUnexpectedEOF
		}
	} else {
		n, err = f.File.ReadAt(p, off)
	}
	f.fs.calls++
	f.fs.bytes += n
	return n, err
}

// TestRunReadsMatchIOStats holds IOStats to the file system's own count:
// every positioned read a query issues is one ReadCalls, and the bytes
// they return are exactly PagesFetched pages. On a cached store every
// fetched page is also one cache miss and every other visit one hit, so
// no resident page is ever read from the file. The queries run bare,
// behind a cache that thrashes and behind one that holds everything,
// twice each; a whole-store scan is one range over all 125 pages of 32
// slots, read in reads of runPages pages.
func TestRunReadsMatchIOStats(t *testing.T) {
	side := uint32(64)
	o, _ := core.NewOnion2D(side)
	recs := buildRecords(t, o.Universe(), 4000, 17)
	path := tmpPath(t)
	if err := Write(path, o, recs, 32*recordSize); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	rects := []geom.Rect{o.Universe().Rect()}
	for len(rects) < 60 {
		lo := geom.Point{uint32(rng.Intn(int(side) - 16)), uint32(rng.Intn(int(side) - 16))}
		w, h := uint32(1+rng.Intn(16)), uint32(1+rng.Intn(16))
		rects = append(rects, geom.Rect{Lo: lo, Hi: geom.Point{lo[0] + w - 1, lo[1] + h - 1}})
	}
	for _, budget := range []int64{0, 16 * 32 * recordSize, 1 << 20} {
		var cache *Cache
		if budget > 0 {
			cache = NewCache(budget)
		}
		fs := &spyFS{}
		s, err := OpenCachedFS(fs, path, o, cache)
		if err != nil {
			t.Fatal(err)
		}
		if s.Pages() != 125 {
			t.Fatalf("store has %d pages, want 125", s.Pages())
		}
		var total IOStats
		for pass := 0; pass < 2; pass++ {
			for i, r := range rects {
				krs, err := ranges.Decompose(o, r, 0)
				if err != nil {
					t.Fatal(err)
				}
				calls, bytes := fs.calls, fs.bytes
				var before CacheStats
				if cache != nil {
					before = cache.Stats()
				}
				_, io, err := walkRanges(s, krs, nil)
				if err != nil {
					t.Fatal(err)
				}
				total.Add(io)
				if got := fs.calls - calls; got != io.ReadCalls {
					t.Fatalf("budget %d pass %d rect %v: %d ReadAt calls, IOStats says %d", budget, pass, r, got, io.ReadCalls)
				}
				if got := fs.bytes - bytes; got != io.PagesFetched*s.pageBytes {
					t.Fatalf("budget %d pass %d rect %v: %d bytes read for %d pages fetched", budget, pass, r, got, io.PagesFetched)
				}
				if cache != nil {
					after := cache.Stats()
					if int(after.Misses-before.Misses) != io.PagesFetched || int(after.Hits-before.Hits) != io.CacheHits {
						t.Fatalf("budget %d pass %d rect %v: cache saw %d misses + %d hits, io %+v", budget, pass, r,
							after.Misses-before.Misses, after.Hits-before.Hits, io)
					}
				}
				if i == 0 && (cache == nil || pass == 0) {
					if want := (s.Pages() + runPages - 1) / runPages; io.PagesFetched != s.Pages() || io.ReadCalls != want {
						t.Fatalf("budget %d pass %d: whole-store scan %+v, want %d pages in %d reads", budget, pass, io, s.Pages(), want)
					}
				}
			}
		}
		t.Logf("budget %d: %+v", budget, total)
		if total.ReadCalls >= total.PagesFetched || (cache != nil && total.CacheHits == 0) {
			t.Fatalf("budget %d: %+v: no read fetched more than one page, or no visit hit", budget, total)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
}
