package pagedstore

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"github.com/onioncurve/onion/internal/baseline"
	"github.com/onioncurve/onion/internal/cluster"
	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
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

func TestQueryAcrossCurves(t *testing.T) {
	side := uint32(32)
	u := geom.MustUniverse(2, side)
	o, _ := core.NewOnion2D(side)
	h, _ := baseline.NewHilbert(2, side)
	z, _ := baseline.NewMorton(2, side)
	recs := buildRecords(t, u, 800, 43)
	r := geom.Rect{Lo: geom.Point{4, 4}, Hi: geom.Point{27, 25}}
	for _, c := range []curve.Curve{o, h, z} {
		path := tmpPath(t)
		if err := Write(path, c, recs, 256); err != nil {
			t.Fatal(err)
		}
		st, err := Open(path, c)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := st.Query(r)
		st.Close()
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, rec := range recs {
			if r.Contains(rec.Point) {
				want++
			}
		}
		if len(got) != want {
			t.Fatalf("%s: %d results, want %d", c.Name(), len(got), want)
		}
	}
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
	if err := Write(pathRM, rm, recs, 256); err != nil {
		t.Fatal(err)
	}
	if err := Write(pathCM, cm, recs, 256); err != nil {
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
// keys' values but not for their shape. A run that steps back, a key
// outside the curve's key space and a point of the wrong dimension are
// each an error, found before the file is created: nothing is at path.
func TestWriteEntriesRejectsBadInput(t *testing.T) {
	o, _ := core.NewOnion2D(16)
	good := func() []Entry {
		return []Entry{
			{Key: 3, Point: geom.Point{1, 1}, Payload: 1},
			{Key: 3, Point: geom.Point{1, 1}, Payload: 2}, // equal keys are in order
			{Key: 9, Point: geom.Point{2, 2}, Payload: 3, Marked: true},
		}
	}
	path := tmpPath(t)
	if err := WriteEntries(vfs.OS{}, path, o, good(), 64); err != nil {
		t.Fatalf("well-formed run rejected: %v", err)
	}
	for name, spoil := range map[string]func(ents []Entry){
		"out of order":    func(ents []Entry) { ents[2].Key = 2 },
		"key >= size":     func(ents []Entry) { ents[2].Key = o.Universe().Size() },
		"wrong dimension": func(ents []Entry) { ents[1].Point = geom.Point{1, 1, 1} },
		"no point":        func(ents []Entry) { ents[0].Point = nil },
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
	if err := WriteEntries(vfs.OS{}, tmpPath(t), o, good(), 19); !errors.Is(err, ErrPageBytes) {
		t.Errorf("19-byte page for a 24-byte record: %v, want ErrPageBytes", err)
	}
}

// goldenInput is the fixed input of TestV4GoldenBytes: 61 records in no
// key order, several to a cell, every fourth marked.
func goldenInput() (recs []Record, marks []bool) {
	for i := 0; i < 61; i++ {
		x, y := uint32(i*7)%16, uint32(i*5+i/16)%16
		recs = append(recs, Record{Point: geom.Point{x, y}, Payload: uint64(i) * 0x0101010101})
		marks = append(marks, i%4 == 1)
	}
	return recs, marks
}

// TestV4GoldenBytes pins the file layout to what the retired WriteMarkedFS
// produced for the same input (the literal and the digests were taken from
// it at the commit before WriteEntries replaced it), so segments and
// snapshots written before the change open after it and the other way
// round: a three-record file byte for byte, and the digests of a marked
// file with a partial last page, of the bulk Write of the same records
// (no marks, another page size) and of an empty store.
func TestV4GoldenBytes(t *testing.T) {
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
	small := read(func(path string) { writeMarked(t, path, o, recs[:3], marks[:3], 64) })
	const smallWant = "VRCNOINO\x04\x00\x00\x00\x02\x00\x00\x00\x10\x00\x00\x00@\x00\x00\x00" + // magic, version, dims, side, page bytes
		"\x03\x00\x00\x00\x00\x00\x00\x00\x02\x00\x00\x00\x00\x00\x00\x00" + // 3 records, 2 pages
		"\x00\x00\x00\x00\x00\x00\x00\x00\xde\x00\x00\x00\x00\x00\x00\x00" + // page index
		"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00" + // page 0: key 0 (0,0) payload 0
		"R\x00\x00\x00\x00\x00\x00\x00\x0e\x00\x00\x00\n\x00\x00\x00\x02\x02\x02\x02\x02\x00\x00\x00" + // key 82 (14,10)
		"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00" + // slack
		"\xde\x00\x00\x00\x00\x00\x00\x00\a\x00\x00\x00\x05\x00\x00\x00\x01\x01\x01\x01\x01\x00\x00\x00" + // page 1: key 222 (7,5)
		"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00" +
		"\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00" +
		"\x04" + // marks: the third entry in key order
		"R\x00\x00\x00\x00\x00\x00\x00\xde\x00\x00\x00\x00\x00\x00\x00" + // fences
		"\xa0\x18\x04\xa6:I\xd0\x9f" + // page checksums
		"\a\x00\x00\x00\x01\x00\x00\x00\x05(LD\x82\x9b\x80p" + // filter: k = 7, one word
		"\x98\x04$\x9d" // metadata checksum
	if string(small) != smallWant {
		t.Errorf("three-record file:\n got %q\nwant %q", small, smallWant)
	}
	for _, tc := range []struct {
		name   string
		got    []byte
		length int
		sum    string
	}{
		{"marked, 100-byte pages", read(func(path string) { writeMarked(t, path, o, recs, marks, 100) }),
			2060, "e3eb47cae8035299000c820c0c1916e6d14ef644fff411c908a89ae361034702"},
		{"bulk Write, 256-byte pages", read(func(path string) {
			if err := Write(path, o, recs, 256); err != nil {
				t.Fatal(err)
			}
		}), 2072, "b9b8343d6327ffd8ef6b674a27a56bb15579d2704c090f07f9f780622a61fe95"},
		{"empty", read(func(path string) { writeMarked(t, path, o, nil, nil, 64) }),
			52, "7b2689b87d4e0b55eba504d9ad750cace9075f5014481849d706fb658bd64f70"},
	} {
		if sum := fmt.Sprintf("%x", sha256.Sum256(tc.got)); len(tc.got) != tc.length || sum != tc.sum {
			t.Errorf("%s: %d bytes, sha256 %s; the retired writer gave %d bytes, %s", tc.name, len(tc.got), sum, tc.length, tc.sum)
		}
	}
}
