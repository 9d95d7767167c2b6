package pagedstore

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/bits"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/onioncurve/onion/internal/baseline"
	"github.com/onioncurve/onion/internal/cluster"
	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/curvetest"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/vfs"
	"github.com/onioncurve/onion/internal/workload"
)

func tmpPath(t *testing.T) string {
	t.Helper()
	return filepath.Join(t.TempDir(), "store.onion")
}

func buildRecords(t *testing.T, u geom.Universe, n int, seed int64) []Record {
	t.Helper()
	pts, err := workload.ClusteredPoints(u, 4, n, seed)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, n)
	for i, p := range pts {
		recs[i] = Record{Point: p, Payload: uint64(i)}
	}
	return recs
}

func TestWriteOpenQueryRoundTrip(t *testing.T) {
	side := uint32(64)
	u := geom.MustUniverse(2, side)
	o, _ := core.NewOnion2D(side)
	recs := buildRecords(t, u, 2000, 41)
	path := tmpPath(t)
	if err := Write(path, o, recs, 512); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path, o)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != 2000 {
		t.Fatalf("len = %d", st.Len())
	}
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		lo := geom.Point{uint32(rng.Int31n(int32(side))), uint32(rng.Int31n(int32(side)))}
		hi := geom.Point{uint32(rng.Int31n(int32(side))), uint32(rng.Int31n(int32(side)))}
		for i := range lo {
			if lo[i] > hi[i] {
				lo[i], hi[i] = hi[i], lo[i]
			}
		}
		r := geom.Rect{Lo: lo, Hi: hi}
		got, stats, err := st.Query(r)
		if err != nil {
			t.Fatal(err)
		}
		var want []uint64
		for _, rec := range recs {
			if r.Contains(rec.Point) {
				want = append(want, rec.Payload)
			}
		}
		var gotIDs []uint64
		for _, rec := range got {
			if !r.Contains(rec.Point) {
				t.Fatalf("record %v outside query %v", rec.Point, r)
			}
			gotIDs = append(gotIDs, rec.Payload)
		}
		sort.Slice(want, func(a, b int) bool { return want[a] < want[b] })
		sort.Slice(gotIDs, func(a, b int) bool { return gotIDs[a] < gotIDs[b] })
		if len(gotIDs) != len(want) {
			t.Fatalf("query %v: %d results, want %d", r, len(gotIDs), len(want))
		}
		for i := range want {
			if gotIDs[i] != want[i] {
				t.Fatalf("query %v: payload %d vs %d", r, gotIDs[i], want[i])
			}
		}
		if stats.Results != len(want) {
			t.Fatal("stats results")
		}
		// Physical seeks can never exceed the clustering number.
		cn, err := cluster.Count(o, r)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(stats.Seeks) > cn {
			t.Fatalf("query %v: %d seeks exceed clustering number %d", r, stats.Seeks, cn)
		}
	}
}

// TestQueryAcrossCurves round-trips the same records through stores
// clustered by different curves, in 2-D and 3-D: every query returns
// exactly the brute-force records, points included — rebuilt from the
// keys, since a page holds only key offsets and payloads, in any
// dimension. Every store's pages are filled greedily (checkGreedy). The
// last universe has 2⁴⁰ keys, so its sparse keys make the writer start
// pages before they are full, wherever the next key lies 2³² or more past
// the page's first; no other store has a page cut short.
func TestQueryAcrossCurves(t *testing.T) {
	side := uint32(32)
	o, _ := core.NewOnion2D(side)
	h, _ := baseline.NewHilbert(2, side)
	z, _ := baseline.NewMorton(2, side)
	recs2 := buildRecords(t, geom.MustUniverse(2, side), 800, 43)
	r2 := geom.Rect{Lo: geom.Point{4, 4}, Hi: geom.Point{27, 25}}
	o3, _ := core.NewOnion3D(16)
	h3, _ := baseline.NewHilbert(3, 16)
	recs3 := buildRecords(t, geom.MustUniverse(3, 16), 700, 44)
	r3 := geom.Rect{Lo: geom.Point{2, 3, 1}, Hi: geom.Point{12, 14, 9}}
	ow, _ := core.NewOnion2D(1 << 20)
	recsW := buildRecords(t, ow.Universe(), 800, 45)
	rW := geom.Rect{Lo: geom.Point{4 << 15, 4 << 15}, Hi: geom.Point{27 << 15, 25 << 15}}
	type cs struct {
		c    curve.Curve
		recs []Record
		r    geom.Rect
	}
	for _, tc := range []cs{{o, recs2, r2}, {h, recs2, r2}, {z, recs2, r2}, {o3, recs3, r3}, {h3, recs3, r3}, {ow, recsW, rW}} {
		path := tmpPath(t)
		if err := Write(path, tc.c, tc.recs, 256); err != nil {
			t.Fatal(err)
		}
		st, err := Open(path, tc.c)
		if err != nil {
			t.Fatal(err)
		}
		cut := checkGreedy(t, st)
		got, _, err := st.Query(tc.r)
		st.Close()
		if err != nil {
			t.Fatal(err)
		}
		if wide := tc.c.Universe().Size() > 1<<32; wide != (cut > 0) {
			t.Errorf("%s %dD side %d: %d pages cut short by a key 2³² past their first (want some only past 2³² keys)",
				tc.c.Name(), tc.c.Universe().Dims(), tc.c.Universe().Side(), cut)
		}
		var want []Record
		for _, rec := range tc.recs {
			if tc.r.Contains(rec.Point) {
				want = append(want, rec)
			}
		}
		byPayload := func(rs []Record) {
			sort.Slice(rs, func(a, b int) bool { return rs[a].Payload < rs[b].Payload })
		}
		byPayload(got)
		byPayload(want)
		if len(want) == 0 || len(want) == len(tc.recs) {
			t.Fatalf("%s %dD: the query holds %d of %d records, so it tests no filtering", tc.c.Name(), tc.c.Universe().Dims(), len(want), len(tc.recs))
		}
		if len(got) != len(want) {
			t.Fatalf("%s %dD: %d results, want %d", tc.c.Name(), tc.c.Universe().Dims(), len(got), len(want))
		}
		for i := range want {
			if got[i].Payload != want[i].Payload || !got[i].Point.Equal(want[i].Point) {
				t.Fatalf("%s %dD: record %d = %v, want %v", tc.c.Name(), tc.c.Universe().Dims(), i, got[i], want[i])
			}
		}
	}
}

// checkGreedy holds an open store to the writer's page cut: each page's
// key width is the bit length of its last key less its first, at most 32;
// its records fit the page, n·8 + ⌈n·w/8⌉ ≤ pageBytes; and every page but
// the last is full — the next page's first record, added to it, would
// overflow it or widen its keys past 32 bits. It returns how many pages
// ended on the width alone: the next record would have fit at the page's
// width, but lies 2³² or more past its first key.
func checkGreedy(t *testing.T, s *Store) (cut int) {
	t.Helper()
	fit := func(n, w int) bool { return w <= 32 && n*8+(n*w+7)/8 <= s.pageBytes }
	for p := range s.firstKeys {
		n, w := int(s.counts[p]), int(s.widths[p])
		if want := bits.Len64(s.pageMax[p] - s.firstKeys[p]); w != want || !fit(n, w) {
			t.Fatalf("page %d: %d records of width %d in %d bytes, keys %d..%d need width %d",
				p, n, w, s.pageBytes, s.firstKeys[p], s.pageMax[p], want)
		}
		if p+1 == len(s.firstKeys) {
			break
		}
		if next := bits.Len64(s.firstKeys[p+1] - s.firstKeys[p]); fit(n+1, next) {
			t.Fatalf("page %d of %d records ends before key %d, which fits it at width %d", p, n, s.firstKeys[p+1], next)
		} else if next > 32 && fit(n+1, w) {
			cut++
		}
	}
	return cut
}

func TestEmptyStore(t *testing.T) {
	o, _ := core.NewOnion2D(16)
	path := tmpPath(t)
	if err := Write(path, o, nil, 256); err != nil {
		t.Fatal(err)
	}
	st, err := Open(path, o)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	got, stats, err := st.Query(o.Universe().Rect())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 || stats.PagesRead != 0 {
		t.Fatalf("empty store query: %d results, %+v", len(got), stats)
	}
}

func TestValidationErrors(t *testing.T) {
	o, _ := core.NewOnion2D(16)
	path := tmpPath(t)
	// Page too small.
	if err := Write(path, o, nil, 4); !errors.Is(err, ErrPageBytes) {
		t.Error("tiny page accepted")
	}
	// Point outside universe.
	if err := Write(path, o, []Record{{Point: geom.Point{99, 0}}}, 256); err == nil {
		t.Error("outside point accepted")
	}
	// Curve mismatch on open.
	if err := Write(path, o, []Record{{Point: geom.Point{1, 1}}}, 256); err != nil {
		t.Fatal(err)
	}
	h3, _ := baseline.NewHilbert(3, 16)
	if _, err := Open(path, h3); !errors.Is(err, ErrMismatch) {
		t.Error("mismatched curve accepted")
	}
	o32, _ := core.NewOnion2D(32)
	if _, err := Open(path, o32); !errors.Is(err, ErrMismatch) {
		t.Error("mismatched side accepted")
	}
	// Missing file.
	if _, err := Open(filepath.Join(t.TempDir(), "nope"), o); err == nil {
		t.Error("missing file accepted")
	}
}

func TestCorruptFiles(t *testing.T) {
	o, _ := core.NewOnion2D(16)
	path := tmpPath(t)
	if err := os.WriteFile(path, []byte("short"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, o); !errors.Is(err, ErrCorrupt) {
		t.Error("short file accepted")
	}
	bad := make([]byte, 64)
	if err := os.WriteFile(path, bad, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, o); !errors.Is(err, ErrCorrupt) {
		t.Error("bad magic accepted")
	}
}

func TestSeeksReflectClustering(t *testing.T) {
	// A full-width row query is one cluster under rowmajor ordering but
	// many under column-major: the physical seek counts must reflect it.
	// A 128-byte page holds 15 of these dense keys (4-bit offsets), under
	// half a 32-key column, so column-major's row keys land on pages two or
	// three apart, never adjacent.
	side := uint32(32)
	rm, _ := baseline.NewRowMajor(2, side)
	cm, _ := baseline.NewColumnMajor(2, side)
	var recs []Record
	for x := uint32(0); x < side; x++ {
		for y := uint32(0); y < side; y++ {
			recs = append(recs, Record{Point: geom.Point{x, y}, Payload: uint64(x)<<32 | uint64(y)})
		}
	}
	row := geom.Rect{Lo: geom.Point{0, 7}, Hi: geom.Point{side - 1, 7}}
	pathRM := tmpPath(t)
	pathCM := tmpPath(t)
	if err := Write(pathRM, rm, recs, 128); err != nil {
		t.Fatal(err)
	}
	if err := Write(pathCM, cm, recs, 128); err != nil {
		t.Fatal(err)
	}
	stRM, err := Open(pathRM, rm)
	if err != nil {
		t.Fatal(err)
	}
	defer stRM.Close()
	stCM, err := Open(pathCM, cm)
	if err != nil {
		t.Fatal(err)
	}
	defer stCM.Close()
	_, sRM, err := stRM.Query(row)
	if err != nil {
		t.Fatal(err)
	}
	_, sCM, err := stCM.Query(row)
	if err != nil {
		t.Fatal(err)
	}
	if sRM.Seeks != 1 {
		t.Errorf("rowmajor row query seeks = %d, want 1", sRM.Seeks)
	}
	if sCM.Seeks <= sRM.Seeks*4 {
		t.Errorf("colmajor row query seeks = %d, expected far more than rowmajor's %d",
			sCM.Seeks, sRM.Seeks)
	}
}

func TestDuplicateCells(t *testing.T) {
	o, _ := core.NewOnion2D(16)
	recs := []Record{
		{Point: geom.Point{5, 5}, Payload: 1},
		{Point: geom.Point{5, 5}, Payload: 2},
		{Point: geom.Point{5, 5}, Payload: 3},
	}
	path := tmpPath(t)
	if err := Write(path, o, recs, 256); err != nil {
		t.Fatal(err)
	}
	st, _ := Open(path, o)
	defer st.Close()
	got, _, err := st.Query(geom.Rect{Lo: geom.Point{5, 5}, Hi: geom.Point{5, 5}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 {
		t.Fatalf("duplicates = %d", len(got))
	}
}

// TestEstimateSeeks verifies the I/O-free seek estimate: it must equal the
// exact cluster count, bound the seeks Query actually pays, and answer for
// paper-scale queries that no enumeration could.
func TestEstimateSeeks(t *testing.T) {
	side := uint32(64)
	u := geom.MustUniverse(2, side)
	o, _ := core.NewOnion2D(side)
	recs := buildRecords(t, u, 3000, 23)
	path := tmpPath(t)
	if err := Write(path, o, recs, 512); err != nil {
		t.Fatal(err)
	}
	s, err := Open(path, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	rng := rand.New(rand.NewSource(29))
	for trial := 0; trial < 30; trial++ {
		lo := geom.Point{uint32(rng.Int31n(int32(side))), uint32(rng.Int31n(int32(side)))}
		hi := geom.Point{uint32(rng.Int31n(int32(side))), uint32(rng.Int31n(int32(side)))}
		for i := range lo {
			if lo[i] > hi[i] {
				lo[i], hi[i] = hi[i], lo[i]
			}
		}
		r := geom.Rect{Lo: lo, Hi: hi}
		est, err := s.EstimateSeeks(r)
		if err != nil {
			t.Fatal(err)
		}
		want, err := cluster.Count(o, r)
		if err != nil {
			t.Fatal(err)
		}
		if est != want {
			t.Fatalf("%v: estimate %d, clustering number %d", r, est, want)
		}
		_, st, err := s.Query(r)
		if err != nil {
			t.Fatal(err)
		}
		if uint64(st.Seeks) > est {
			t.Fatalf("%v: %d seeks exceed estimate %d", r, st.Seeks, est)
		}
	}
	// Paper-scale estimate through the analytic planner: a big store is
	// not needed, only a big universe.
	big, err := core.NewOnion3D(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	bigPath := tmpPath(t)
	if err := Write(bigPath, big, []Record{{Point: geom.Point{5, 5, 5}}}, 512); err != nil {
		t.Fatal(err)
	}
	bs, err := Open(bigPath, big)
	if err != nil {
		t.Fatal(err)
	}
	defer bs.Close()
	sb := big.Universe().Side()
	r := geom.Rect{Lo: geom.Point{8, 8, 8}, Hi: geom.Point{sb - 9, sb - 9, sb - 9}}
	est, err := bs.EstimateSeeks(r)
	if err != nil {
		t.Fatal(err)
	}
	if est != 1 {
		t.Fatalf("paper-scale inset estimate = %d, want 1", est)
	}
}

// TestWriteEntriesRejectsBadInput: WriteEntries trusts its caller for the
// keys' values but not for their shape. A run that steps back and a key
// outside the curve's key space are each an error, found before the file
// is created: nothing is at path.
func TestWriteEntriesRejectsBadInput(t *testing.T) {
	o, _ := core.NewOnion2D(16)
	good := func() []Entry {
		return []Entry{
			{Key: 3, Payload: 1},
			{Key: 3, Payload: 2}, // equal keys are in order
			{Key: 9, Payload: 3, Marked: true},
		}
	}
	path := tmpPath(t)
	if err := WriteEntries(vfs.OS{}, path, o, good(), 64); err != nil {
		t.Fatalf("well-formed run rejected: %v", err)
	}
	for name, spoil := range map[string]func(ents []Entry){
		"out of order": func(ents []Entry) { ents[2].Key = 2 },
		"key >= size":  func(ents []Entry) { ents[2].Key = o.Universe().Size() },
	} {
		ents := good()
		spoil(ents)
		path := tmpPath(t)
		if err := WriteEntries(vfs.OS{}, path, o, ents, 64); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s: rejected input left a file behind (stat: %v)", name, err)
		}
	}
	if err := WriteEntries(vfs.OS{}, tmpPath(t), o, good(), 11); !errors.Is(err, ErrPageBytes) {
		t.Errorf("11-byte page for a 12-byte record: %v, want ErrPageBytes", err)
	}
}

// TestKeysRoundTrip: an entry is its key, payload and mark, so the cursor
// and Salvage both read back exactly the entries written, every key of
// the key space at a stride of 3 among them.
func TestKeysRoundTrip(t *testing.T) {
	o, _ := core.NewOnion2D(16)
	var ents []Entry
	for k := uint64(0); k < o.Universe().Size(); k += 3 {
		ents = append(ents, Entry{Key: k, Payload: k * 11, Marked: k%7 == 0})
	}
	path := tmpPath(t)
	if err := WriteEntries(vfs.OS{}, path, o, ents, 64); err != nil {
		t.Fatal(err)
	}
	check := func(how string, i int, e Entry) {
		t.Helper()
		if e != ents[i] {
			t.Fatalf("%s entry %d = %+v, want %+v", how, i, e, ents[i])
		}
	}
	s, err := Open(path, o)
	if err != nil {
		t.Fatal(err)
	}
	cur := s.NewCursor()
	cur.Plan([]curve.KeyRange{{Lo: 0, Hi: o.Universe().Size() - 1}})
	cur.NextRange()
	var e Entry
	n := 0
	for {
		ok, err := cur.NextInto(&e)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			break
		}
		check("cursor", n, e)
		n++
	}
	s.Close()
	if n != len(ents) {
		t.Fatalf("cursor read %d entries, wrote %d", n, len(ents))
	}
	sv, err := SalvageFS(vfs.OS{}, path, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(sv.Entries) != len(ents) {
		t.Fatalf("salvage read %d entries, wrote %d", len(sv.Entries), len(ents))
	}
	for i, e := range sv.Entries {
		check("salvage", i, e)
	}
}

// goldenInput is the fixed input of TestV8GoldenBytes: 61 records in no
// key order, several to a cell, every fourth marked.
func goldenInput() (recs []Record, marks []bool) {
	for i := 0; i < 61; i++ {
		x, y := uint32(i*7)%16, uint32(i*5+i/16)%16
		recs = append(recs, Record{Point: geom.Point{x, y}, Payload: uint64(i) * 0x0101010101})
		marks = append(marks, i%4 == 1)
	}
	return recs, marks
}

// TestV8GoldenBytes pins the file layout: a three-record file byte for
// byte, and the digests of a marked file with a partial last page, of the
// bulk Write of the same records (no marks, another page size), of an
// empty store, and of the same records spread over a curve of 2⁴⁰ keys,
// whose pages the writer cuts short where keys lie 2³² or more apart. A
// page is a column of key offsets from its first key, bit-packed at the
// page's key width, then a column of 8-byte payloads; the points are not
// stored.
func TestV8GoldenBytes(t *testing.T) {
	o, _ := core.NewOnion2D(16)
	recs, marks := goldenInput()
	read := func(write func(path string)) []byte {
		t.Helper()
		path := tmpPath(t)
		write(path)
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// Keys 0 (payload 0), 82 (the cell (14,10), payload 0x0202020202) and
	// 222 (the cell (7,5), payload 0x0101010101, marked). Three records
	// would take 3·8 payload bytes and 3 bytes of 8-bit offsets, 27 > 24,
	// so page 0 holds keys 0 and 82 at width 7 (16 + 2 bytes) and page 1
	// key 222 alone at width 0 (8 bytes).
	small := read(func(path string) { writeMarked(t, path, o, recs[:3], marks[:3], 24) })
	const smallWant = "VRCNOINO\x08\x00\x00\x00\x02\x00\x00\x00\x10\x00\x00\x00\x18\x00\x00\x00" + // magic, version 8, dims, side, 24-byte pages
		"\x03\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00" + // 3 records, 2 pages
		"\x00\x00\x00\x00\x00\x00\x00\x00\xde\x00\x00\x00\x00\x00\x00\x00" + // page index: first keys 0 and 222,
		"\x02\x00\x00\x00\x01\x00\x00\x00" + // then record counts 2 and 1,
		"\x07\x00" + // then key widths 7 and 0
		"\x00\x29" + // page 0 key column: offsets 0 (bits 0–6) and 82 (bits 7–13), 82<<7 = 0x2900
		"\x00\x00\x00\x00\x00\x00\x00\x00" + // payload column: 0,
		"\x02\x02\x02\x02\x02\x00\x00\x00" + // 0x0202020202
		"\x00\x00\x00\x00\x00\x00" + // slack
		"\x01\x01\x01\x01\x01\x00\x00\x00" + // page 1: no key column (width 0), payload 0x0101010101
		"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00" + // slack
		"\x04" + // marks: bit 2, the third record (2 records before page 1, + 0)
		"R\x00\x00\x00\x00\x00\x00\x00\xde\x00\x00\x00\x00\x00\x00\x00" + // fences 82 and 222
		"\x45\xea\xf1\xcb\xbc\xba\x3b\x2d" + // page checksums
		"\xf0\xfd\x82\x5c" // metadata checksum
	if string(small) != smallWant {
		t.Errorf("three-record file:\n got %q\nwant %q", small, smallWant)
	}
	wide, _ := core.NewOnion2D(1 << 20)
	spread := make([]Record, len(recs))
	for i, r := range recs {
		spread[i] = Record{Point: geom.Point{r.Point[0] << 16, r.Point[1] << 16}, Payload: r.Payload}
	}
	for _, tc := range []struct {
		name   string
		got    []byte
		length int
		sum    string
	}{
		{"marked, 100-byte pages", read(func(path string) { writeMarked(t, path, o, recs, marks, 100) }),
			802, "e19db631a9bf1463cebdf94a6b435b26480a89768ca60a52c74e1daf54303236"}, // 6 pages
		{"bulk Write, 256-byte pages", read(func(path string) {
			if err := Write(path, o, recs, 256); err != nil {
				t.Fatal(err)
			}
		}), 895, "083796cb26a851de5bc89faf71e3ec6337ba5e6be0b8e04f5a7b45a0c2552cf2"}, // 3 pages
		{"empty", read(func(path string) { writeMarked(t, path, o, nil, nil, 28) }),
			44, "51ca707e16e21a128a3e89b17c1cec85907d04af4a0c2eb6c271948c9e5b8fbf"},
		{"marked, 2⁴⁰ keys, 100-byte pages cut short", read(func(path string) { writeMarked(t, path, wide, spread, marks, 100) }),
			1552, "5063d90f86dda30381a328a56f908078e2358e2195a04f5759653c55a6d786f2"}, // 12 pages, not 6
	} {
		if sum := fmt.Sprintf("%x", sha256.Sum256(tc.got)); len(tc.got) != tc.length || sum != tc.sum {
			t.Errorf("%s: %d bytes, sha256 %s; want %d bytes, %s", tc.name, len(tc.got), sum, tc.length, tc.sum)
		}
	}
}

// TestQueryMapsBackOnlyResults: a store query reads keys and maps back to
// points only the records it returns, in one batch — not the marked
// records it scans past.
func TestQueryMapsBackOnlyResults(t *testing.T) {
	o, _ := core.NewOnion2D(32)
	c := &curvetest.Counting{PlannedCurve: o}
	var recs []Record
	var marks []bool
	for i := 0; i < 400; i++ {
		recs = append(recs, Record{Point: geom.Point{uint32(i*7) % 32, uint32(i*3) % 32}, Payload: uint64(i)})
		marks = append(marks, i%3 == 0)
	}
	path := tmpPath(t)
	writeMarked(t, path, c, recs, marks, 256)
	s, err := Open(path, c)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c.Reset()
	got, st, err := s.Query(geom.Rect{Lo: geom.Point{3, 2}, Hi: geom.Point{25, 29}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) == 0 || st.RecordsScanned <= st.Results || st.Results != len(got) {
		t.Fatalf("%d records, stats %+v: want some returned and some marked ones scanned", len(got), st)
	}
	if n, k := c.IndexKeys.Load(), c.CoordsKeys.Load(); n != 0 || k != int64(len(got)) {
		t.Fatalf("query evaluated the curve at %d points and %d keys, want 0 and %d", n, k, len(got))
	}
}
