package pagedstore

import (
	"encoding/binary"
	"math/rand"
	"sort"
	"sync"
	"testing"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/ranges"
)

// TestParallelQueryRace hammers one open Store from many goroutines at
// once. All reads are positioned ReadAt calls and every query owns its
// Cursor, so under -race this must be silent and every query must return
// the same answer it returns single-threaded.
func TestParallelQueryRace(t *testing.T) {
	side := uint32(64)
	o, _ := core.NewOnion2D(side)
	recs := buildRecords(t, geom.MustUniverse(2, side), 3000, 99)
	path := tmpPath(t)
	if err := Write(path, o, recs, 512); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path, o)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Reference answers, computed single-threaded.
	rects := make([]geom.Rect, 24)
	wantLen := make([]int, len(rects))
	wantStats := make([]Stats, len(rects))
	rng := rand.New(rand.NewSource(7))
	for i := range rects {
		lo := geom.Point{uint32(rng.Int31n(int32(side))), uint32(rng.Int31n(int32(side)))}
		hi := geom.Point{uint32(rng.Int31n(int32(side))), uint32(rng.Int31n(int32(side)))}
		for d := range lo {
			if lo[d] > hi[d] {
				lo[d], hi[d] = hi[d], lo[d]
			}
		}
		rects[i] = geom.Rect{Lo: lo, Hi: hi}
		got, stats, err := st.Query(rects[i])
		if err != nil {
			t.Fatal(err)
		}
		wantLen[i] = len(got)
		wantStats[i] = stats
	}

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				i := (w + rep) % len(rects)
				got, stats, err := st.Query(rects[i])
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != wantLen[i] || stats != wantStats[i] {
					t.Errorf("rect %v: parallel query diverged: %d/%+v vs %d/%+v",
						rects[i], len(got), stats, wantLen[i], wantStats[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestWriteMarkedRoundTrip: marked records are persisted, reported by the
// cursor with their key and mark, and skipped by Query; a store written
// without marks reports none.
func TestWriteMarkedRoundTrip(t *testing.T) {
	side := uint32(16)
	o, _ := core.NewOnion2D(side)
	var recs []Record
	var marks []bool
	for x := uint32(0); x < side; x++ {
		recs = append(recs, Record{Point: geom.Point{x, 3}, Payload: uint64(x)})
		marks = append(marks, x%3 == 0)
	}
	path := tmpPath(t)
	writeMarked(t, path, o, recs, marks, 256)
	st, err := Open(path, o)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if !st.Marked() {
		t.Fatal("Marked() = false on a store with marks")
	}
	plainPath := tmpPath(t)
	if err := Write(plainPath, o, recs, 256); err != nil {
		t.Fatal(err)
	}
	plain, err := Open(plainPath, o)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Marked() {
		t.Fatal("Marked() = true on a store written without marks")
	}
	plain.Close()
	row := geom.Rect{Lo: geom.Point{0, 3}, Hi: geom.Point{side - 1, 3}}
	got, stats, err := st.Query(row)
	if err != nil {
		t.Fatal(err)
	}
	wantLive := 0
	for _, m := range marks {
		if !m {
			wantLive++
		}
	}
	if len(got) != wantLive || stats.Results != wantLive {
		t.Fatalf("query returned %d records (stats %d), want %d live", len(got), stats.Results, wantLive)
	}
	for _, rec := range got {
		if rec.Point[0]%3 == 0 {
			t.Fatalf("marked record %v leaked into Query", rec.Point)
		}
	}
	// The cursor surfaces every record with its mark and key.
	cur := st.NewCursor()
	cur.Plan([]curve.KeyRange{{Lo: 0, Hi: o.Universe().Size() - 1}})
	cur.NextRange()
	seen, seenMarked := 0, 0
	lastKey := uint64(0)
	var e Entry
	for {
		ok, err := cur.NextInto(&e)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		if seen > 0 && e.Key < lastKey {
			t.Fatal("cursor out of key order")
		}
		lastKey = e.Key
		seen++
		if e.Marked {
			seenMarked++
		}
		pt := o.Coords(e.Key, nil)
		wantMarked := pt[0]%3 == 0
		if e.Marked != wantMarked {
			t.Fatalf("record %v: marked=%v, want %v", pt, e.Marked, wantMarked)
		}
	}
	if seen != len(recs) || seenMarked != len(recs)-wantLive {
		t.Fatalf("cursor saw %d records (%d marked)", seen, seenMarked)
	}
}

// TestCursorMatchesQueryStats compares Query (now cursor-backed) against
// an inlined copy of the original page-run algorithm: results and every
// stats field must be identical. This pins the exact accounting semantics
// the storage engine's bit-identical seek counting rests on.
func TestCursorMatchesQueryStats(t *testing.T) {
	side := uint32(32)
	o, _ := core.NewOnion2D(side)
	recs := buildRecords(t, geom.MustUniverse(2, side), 1200, 3)
	path := tmpPath(t)
	if err := Write(path, o, recs, 256); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path, o)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		lo := geom.Point{uint32(rng.Int31n(int32(side))), uint32(rng.Int31n(int32(side)))}
		hi := geom.Point{uint32(rng.Int31n(int32(side))), uint32(rng.Int31n(int32(side)))}
		for d := range lo {
			if lo[d] > hi[d] {
				lo[d], hi[d] = hi[d], lo[d]
			}
		}
		r := geom.Rect{Lo: lo, Hi: hi}
		got, gotStats, err := st.Query(r)
		if err != nil {
			t.Fatal(err)
		}
		want, wantStats, err := referenceQuery(st, r)
		if err != nil {
			t.Fatal(err)
		}
		if gotStats != wantStats {
			t.Fatalf("%v: stats %+v, reference %+v", r, gotStats, wantStats)
		}
		if len(got) != len(want) {
			t.Fatalf("%v: %d results, reference %d", r, len(got), len(want))
		}
		for i := range want {
			if !got[i].Point.Equal(want[i].Point) || got[i].Payload != want[i].Payload {
				t.Fatalf("%v: record %d diverges", r, i)
			}
		}
	}
}

// referenceQuery is the pre-cursor Query implementation, kept as the
// semantic reference for page-run iteration and stats accounting: it reads
// every page of every run from the file and walks each one from slot 0 to
// its last record. Seeks, PagesRead and the records are verbatim. The one
// line that moved is RecordsScanned++, from before the range check to after
// it, when Stats.RecordsScanned was redefined from "every slot of every
// visited page" to "records decoded with a key in the range" — so this
// linear walk is also the oracle for the cursor's in-page binary search.
func referenceQuery(s *Store, r geom.Rect) ([]Record, Stats, error) {
	krs, err := ranges.Decompose(s.c, r, 0)
	if err != nil {
		return nil, Stats{}, err
	}
	recs, st, _, err := referenceRanges(s, krs)
	return recs, st, err
}

// referenceRanges is referenceQuery from its plan on, for callers that
// bring their own ranges. It also returns the physical I/O a bare store
// pays for the plan, from a walk of its own. A range's visit fetches its
// page unless the page's fence ends before the range, or the page is the
// one fetched last. The fetched pages are read in maximal runs of
// consecutive pages, each split into reads of at most runPages pages.
func referenceRanges(s *Store, krs []curve.KeyRange) ([]Record, Stats, IOStats, error) {
	var st Stats
	var io IOStats
	var out []Record
	lastPage, lastFetched, run := -2, -2, 0
	buf := make([]byte, s.pageBytes)
	for _, kr := range krs {
		p := sort.Search(len(s.firstKeys), func(i int) bool {
			return i+1 >= len(s.firstKeys) || s.firstKeys[i+1] >= kr.Lo
		})
		for ; p < len(s.firstKeys) && s.firstKeys[p] <= kr.Hi; p++ {
			if p != lastPage && p != lastPage+1 {
				st.Seeks++
			}
			if p != lastPage {
				st.PagesRead++
				if _, err := s.f.ReadAt(buf, s.dataOff+int64(p)*int64(s.pageBytes)); err != nil {
					return nil, st, io, err
				}
				lastPage = p
			}
			if s.pageMax[p] >= kr.Lo && p != lastFetched {
				if p != lastFetched+1 || run == runPages {
					io.ReadCalls++
					run = 0
				}
				io.PagesFetched++
				run++
				lastFetched = p
			}
			// The page's first key, record count and key width come from the
			// file's page index: pageCount first keys from byte 40, then
			// pageCount counts, then pageCount one-byte widths. A page is its
			// key offsets from the first key, packed at that width, then its
			// 8-byte payloads; refOffset unpacks an offset bit by bit. The
			// point is the curve's per-key inverse of the key, not the
			// cursor's batch path.
			pages := int64(len(s.firstKeys))
			var first [8]byte
			var count [4]byte
			var width [1]byte
			if _, err := s.f.ReadAt(first[:], 40+8*int64(p)); err != nil {
				return nil, st, io, err
			}
			if _, err := s.f.ReadAt(count[:], 40+8*pages+4*int64(p)); err != nil {
				return nil, st, io, err
			}
			if _, err := s.f.ReadAt(width[:], 40+12*pages+int64(p)); err != nil {
				return nil, st, io, err
			}
			n, w := int(binary.LittleEndian.Uint32(count[:])), int(width[0])
			for i := 0; i < n; i++ {
				key := binary.LittleEndian.Uint64(first[:]) + refOffset(buf, i, w)
				if key < kr.Lo || key > kr.Hi {
					continue
				}
				st.RecordsScanned++
				out = append(out, Record{
					Point:   s.c.Coords(key, nil),
					Payload: binary.LittleEndian.Uint64(buf[(n*w+7)/8+8*i:]),
				})
			}
		}
	}
	st.Results = len(out)
	return out, st, io, nil
}

// refOffset returns offset i of a key column packed w bits to an offset,
// least significant bit first, reading it one bit at a time.
func refOffset(col []byte, i, w int) uint64 {
	var v uint64
	for b := 0; b < w; b++ {
		bit := i*w + b
		v |= uint64(col[bit/8]>>(bit%8)&1) << b
	}
	return v
}
