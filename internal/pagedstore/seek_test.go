package pagedstore

import (
	"fmt"
	"io"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
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
// of records, so runs of duplicates straddle page boundaries and fill
// pages of key width 0; n is free, so the last page is usually partial.
// On a curve of more than 2³² keys the keys lie about 2^e apart, for an e
// from 0 to 32 drawn per case, and one gap in sixteen is 2^x, give or
// take two, for an x from 28 to 32 — offsets just below and just past a
// power of two: the pages' key widths span 0 to 32, and pages end short of
// full where a key lies 2³² or more past their first. Ranges advance by a
// gap of zero (the next range starts on the key after the previous one
// ended — the two share a page), a few keys, a few pages, or to just short
// of the next stored key, which crosses any gap in one step; and span one
// key (lo == hi), a few keys, a few pages, or up to the next stored key.
func genSeekCase(o curve.Curve, seed int64, n uint16, perPage uint8) seekCase {
	rng := rand.New(rand.NewSource(seed))
	size := o.Universe().Size()
	wide := size > 1<<32
	per := int(perPage)%12 + 1
	cs := seekCase{pageBytes: per*recordSize + rng.Intn(recordSize)}

	count := int(n) % 1500
	stride := max(size/4096, 1) // with no keys, still a few thousand ranges at most
	if count > 0 {
		stride = max((size*3/4)/uint64(count), 1)
	}
	if wide {
		stride = min(stride, 1<<rng.Intn(33))
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
		gap := 1 + uint64(rng.Int63n(int64(2*stride)))
		if wide && rng.Intn(16) == 0 {
			gap = 1<<(28+rng.Intn(5)) - 2 + uint64(rng.Intn(5))
		}
		key += gap
	}

	// step draws the distance from at to the next range bound. Past the
	// last key it may end the plan.
	step := func(at uint64) uint64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return uint64(rng.Int63n(int64(4 * stride)))
		case 2:
			return uint64(rng.Int63n(int64(4 * stride * uint64(per))))
		}
		j := sort.Search(len(cs.keys), func(j int) bool { return cs.keys[j] > at })
		if j == len(cs.keys) {
			return size
		}
		d := cs.keys[j] - at
		return d - uint64(rng.Int63n(int64(min(d, 3))))
	}
	for lo := step(0); ; {
		hi := lo + step(lo)
		if hi >= size {
			break
		}
		cs.krs = append(cs.krs, curve.KeyRange{Lo: lo, Hi: hi})
		lo = hi + 1
		lo += step(lo)
	}
	return cs
}

// seekArgs is one input of FuzzCursorSeek.
type seekArgs struct {
	seed    int64
	n       uint16
	perPage uint8
	wide    bool
}

// seekSeeds is FuzzCursorSeek's seed corpus in code. The committed corpus
// files under testdata/fuzz/FuzzCursorSeek add cases whose pages reach
// key widths 0, 1, 31 and 32, each named for its width.
func seekSeeds() []seekArgs {
	var seeds []seekArgs
	for seed := int64(0); seed < 48; seed++ {
		seeds = append(seeds, seekArgs{seed, uint16(37 * seed), uint8(seed), false})
	}
	seeds = append(seeds,
		seekArgs{-1, 0, 0, false}, // empty store
		seekArgs{-2, 1, 0, false}, // one record, one record a page
	)
	for seed := int64(0); seed < 32; seed++ {
		seeds = append(seeds, seekArgs{seed, uint16(91*seed + 40), uint8(seed + 4), true})
	}
	return seeds
}

// seekCurves returns FuzzCursorSeek's two curves: a 64×64 onion, whose
// pages are dense, and an onion of side 2¹⁷ — 2³⁴ keys, room for key
// offsets of every width up to 32 and past it.
func seekCurves(t testing.TB) (narrow, wide curve.Curve) {
	t.Helper()
	n, err := core.NewOnion2D(64)
	if err != nil {
		t.Fatal(err)
	}
	w, err := core.NewOnion2D(1 << 17)
	if err != nil {
		t.Fatal(err)
	}
	return n, w
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
// With wide set, the keys come from a curve of 2³⁴ keys, spread so that
// the pages' key widths span 0 to 32 and the writer often starts a page
// before it is full: the next key lies 2³² or more past the page's first.
// The bare store is also held to the writer's greedy page cut
// (checkGreedy). Its seed corpus — seekSeeds and the committed files under
// testdata/fuzz/FuzzCursorSeek — is the property test plain `go test`
// runs.
func FuzzCursorSeek(f *testing.F) {
	for _, a := range seekSeeds() {
		f.Add(a.seed, a.n, a.perPage, a.wide)
	}
	narrow, wideCurve := seekCurves(f)
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
		checkGreedy(t, bare)
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
			s, err := OpenCachedFS(vfs.OS{}, path, o, pc)
			if err != nil {
				t.Fatalf("%s: %v", cache.name, err)
			}
			// Twice: the second pass meets whatever the first left cached.
			for pass := 0; pass < 2; pass++ {
				got := 0
				st, io, err := walkRanges(s, cs.krs, func(kr curve.KeyRange, e *Entry) {
					if e.Key < kr.Lo || e.Key > kr.Hi {
						t.Fatalf("%s pass %d, range %v: record has key %d", cache.name, pass, kr, e.Key)
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

// TestSeekCaseWidths holds FuzzCursorSeek's seed corpus to its promise:
// across seekSeeds the pages take every key width from 0 to 32, some wide
// case has pages cut short at the 32-bit limit, and each committed corpus
// file named width-N has a page of width N.
func TestSeekCaseWidths(t *testing.T) {
	narrow, wideCurve := seekCurves(t)
	// widths writes the case of a and returns its pages' key widths and
	// how many pages ended on the width alone.
	widths := func(a seekArgs) ([]uint8, int) {
		o := narrow
		if a.wide {
			o = wideCurve
		}
		cs := genSeekCase(o, a.seed, a.n, a.perPage)
		path := filepath.Join(t.TempDir(), "widths.pst")
		writeMarked(t, path, o, cs.recs, cs.marks, cs.pageBytes)
		s, err := Open(path, o)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		return s.widths, checkGreedy(t, s)
	}
	seen := map[uint8]bool{}
	cut := 0
	for _, a := range seekSeeds() {
		ws, c := widths(a)
		for _, w := range ws {
			seen[w] = true
		}
		cut += c
	}
	for w := uint8(0); w <= 32; w++ {
		if !seen[w] {
			t.Errorf("no page of the seed corpus has key width %d", w)
		}
	}
	if cut == 0 {
		t.Error("no page of the seed corpus ends at the 32-bit limit")
	}

	dir := filepath.Join("testdata", "fuzz", "FuzzCursorSeek")
	files, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []uint8{0, 1, 31, 32} {
		name := fmt.Sprintf("width-%d", want)
		if !slices.ContainsFunc(files, func(f os.DirEntry) bool { return f.Name() == name }) {
			t.Errorf("no corpus file %s", name)
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		var a seekArgs
		if _, err := fmt.Sscanf(string(b), "go test fuzz v1\nint64(%d)\nuint16(%d)\nuint8(%d)\nbool(%t)\n",
			&a.seed, &a.n, &a.perPage, &a.wide); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if ws, _ := widths(a); !slices.Contains(ws, want) {
			t.Errorf("%s: %+v has no page of width %d (widths %v)", name, a, want, ws)
		}
	}
}

// packOffsets lays keys out as a page of the current layout — a key
// column of offsets from the first key, packed least significant bit
// first at the bit length of the keys' span, then a zeroed payload column
// — bit by bit, an encoder of its own rather than the writer's. It returns
// the page and the width.
func packOffsets(keys []uint64) ([]byte, uint) {
	w := uint(bits.Len64(keys[len(keys)-1] - keys[0]))
	page := make([]byte, (len(keys)*int(w)+7)/8+8*len(keys))
	for i, k := range keys {
		for b := uint(0); b < w; b++ {
			if (k-keys[0])>>b&1 != 0 {
				bit := uint(i)*w + b
				page[bit/8] |= 1 << (bit % 8)
			}
		}
	}
	return page, w
}

// TestLowerBoundMatchesLinearScan pins the interpolating in-page search to
// a linear scan over the keys, on pages packed by packOffsets: on evenly
// spread, clustered, duplicate-heavy and 2³²-wide pages of every size up
// to a 4 KiB page's 512 records at width 0, for bounds before, inside and
// after the keys, and with last-key hints that are exact, before the first
// key or unrelated to the page — a wrong hint may cost time, never the
// answer.
func TestLowerBoundMatchesLinearScan(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 4000; trial++ {
		n := 1 + rng.Intn(512)
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
					k += uint64(rng.Int63n((1<<32 - 1) / int64(n)))
				}
			}
			keys[i] = k
		}
		first, last := keys[0], keys[n-1]
		page, w := packOffsets(keys)
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
				if got := lowerBound(page, n, w, lo, first, h); got != want {
					t.Fatalf("trial %d: lowerBound(width %d, lo %d, first %d, last hint %d) = %d, want %d (keys %v)", trial, w, lo, first, h, got, want, keys)
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
// twice each; a whole-store scan is one range over all 91 pages of 384
// bytes, read in reads of runPages pages.
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
		if s.Pages() != 91 {
			t.Fatalf("store has %d pages, want 91", s.Pages())
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
