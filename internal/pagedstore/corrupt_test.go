package pagedstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/vfs"
)

// writeMarked is the bulk Write with a mark per record: keys computed,
// stable-sorted, handed to WriteEntries.
func writeMarked(t testing.TB, path string, c curve.Curve, recs []Record, marks []bool, pageBytes int) {
	t.Helper()
	ents := make([]Entry, len(recs))
	for i, r := range recs {
		ents[i] = Entry{Key: c.Index(r.Point), Payload: r.Payload, Marked: marks[i]}
	}
	sort.SliceStable(ents, func(a, b int) bool { return ents[a].Key < ents[b].Key })
	if err := WriteEntries(vfs.OS{}, path, c, ents, pageBytes); err != nil {
		t.Fatal(err)
	}
}

// writeStore builds a marked store and returns its path.
func writeStore(t testing.TB, n int) string {
	t.Helper()
	side := uint32(64)
	o, err := core.NewOnion2D(side)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]Record, n)
	marks := make([]bool, n)
	for i := range recs {
		recs[i] = Record{
			Point:   geom.Point{uint32(i*7) % side, uint32(i*13) % side},
			Payload: uint64(i),
		}
		marks[i] = i%17 == 0
	}
	path := filepath.Join(t.TempDir(), "store.pst")
	writeMarked(t, path, o, recs, marks, 256)
	return path
}

func flipByte(t testing.TB, path string, off int64, xor byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= xor
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}

func fullScan(s *Store) (int, error) {
	side := uint32(64)
	r := geom.Rect{Lo: geom.Point{0, 0}, Hi: geom.Point{side - 1, side - 1}}
	recs, _, err := s.Query(r)
	return len(recs), err
}

func TestV4PageCorruptionDetected(t *testing.T) {
	path := writeStore(t, 500)
	o, _ := core.NewOnion2D(64)

	// Baseline: clean store opens, scans, verifies.
	s, err := Open(path, o)
	if err != nil {
		t.Fatal(err)
	}
	cleanN, err := fullScan(s)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.VerifyPages(); err != nil {
		t.Fatalf("clean store failed verify: %v", err)
	}
	lo, hi, ok := s.KeySpan()
	if !ok || lo > hi {
		t.Fatalf("key span %d..%d ok=%v", lo, hi, ok)
	}
	s.Close()
	if cleanN == 0 {
		t.Fatal("scan returned nothing")
	}

	// Flip one byte in the middle of the page data: open still succeeds
	// (pages are lazily verified), but both VerifyPages and any query
	// touching the page report ErrCorrupt.
	s2, err := Open(path, o)
	if err != nil {
		t.Fatal(err)
	}
	dataMid := s2.dataOff + int64(len(s2.firstKeys)/2)*int64(s2.pageBytes) + 17
	s2.Close()
	flipByte(t, path, dataMid, 0x40)

	s3, err := Open(path, o)
	if err != nil {
		t.Fatalf("open after page corruption should succeed (lazy verify): %v", err)
	}
	defer s3.Close()
	if err := s3.VerifyPages(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("VerifyPages = %v, want ErrCorrupt", err)
	}
	if _, err := fullScan(s3); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("query over corrupt page = %v, want ErrCorrupt", err)
	}
}

func TestV4CorruptPageNeverEntersCache(t *testing.T) {
	path := writeStore(t, 500)
	o, _ := core.NewOnion2D(64)
	s, err := Open(path, o)
	if err != nil {
		t.Fatal(err)
	}
	dataMid := s.dataOff + int64(len(s.firstKeys)/2)*int64(s.pageBytes) + 3
	s.Close()
	flipByte(t, path, dataMid, 0x81)

	cache := NewCache(1 << 20)
	s2, err := OpenCached(path, o, cache)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	for i := 0; i < 3; i++ {
		if _, err := fullScan(s2); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("scan %d = %v, want ErrCorrupt (cache must not mask corruption)", i, err)
		}
	}
}

func TestV4MetadataCorruptionDetectedAtOpen(t *testing.T) {
	path := writeStore(t, 300)
	o, _ := core.NewOnion2D(64)
	s, err := Open(path, o)
	if err != nil {
		t.Fatal(err)
	}
	pages := int64(len(s.firstKeys))
	idxOff := int64(40) + 8              // second first key of the page index
	tailOff := int64(40) + 8*pages - 8   // last first key
	countOff := int64(40) + 12*pages - 4 // last record count
	widthOff := s.dataOff - 1            // last key width
	marksOff := s.dataOff + pages*int64(s.pageBytes)
	s.Close()

	for _, off := range []int64{idxOff, tailOff, countOff, widthOff, marksOff} {
		func() {
			cp := filepath.Join(t.TempDir(), "cp.pst")
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(cp, b, 0o644); err != nil {
				t.Fatal(err)
			}
			flipByte(t, cp, off, 0x04)
			if _, err := Open(cp, o); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open with metadata flip at %d = %v, want ErrCorrupt", off, err)
			}
		}()
	}
}

// TestFenceOutsideKeySpaceRejected: a reader rebuilds every point from its
// key, so a key must lie in the curve's key space. Page keys are checked
// against their page's fence, and a fence past the key space is
// corruption at open, even when the metadata checksum is resealed over
// it.
func TestFenceOutsideKeySpaceRejected(t *testing.T) {
	path := writeStore(t, 300)
	o, _ := core.NewOnion2D(64)
	s, err := Open(path, o)
	if err != nil {
		t.Fatal(err)
	}
	marksOff := s.dataOff + int64(len(s.firstKeys))*int64(s.pageBytes)
	lastFence := marksOff + int64(len(s.marks)) + 8*int64(len(s.firstKeys)-1)
	dataOff := s.dataOff
	s.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint64(b[lastFence:], o.Universe().Size())
	resealMeta(b, dataOff, marksOff)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path, o); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), "outside key space") {
		t.Fatalf("open with a fence past the key space = %v, want ErrCorrupt", err)
	}
}

// resealMeta recomputes the trailing metadata checksum of the store file
// image b, whose pages lie in [dataOff, marksOff): a deliberate edit of the
// metadata then passes the checksum and meets the structural checks.
func resealMeta(b []byte, dataOff, marksOff int64) {
	sum := crc32.Update(0, pageCRC, b[:dataOff])
	sum = crc32.Update(sum, pageCRC, b[marksOff:len(b)-4])
	binary.LittleEndian.PutUint32(b[len(b)-4:], sum)
}

// TestFileLengthExact: after the mark bitmap a file holds exactly its
// fences, page checksums and metadata checksum, so Open rejects a file one
// byte longer or shorter than that as ErrCorrupt — even when the metadata
// checksum is resealed over the edit.
func TestFileLengthExact(t *testing.T) {
	path := writeStore(t, 300)
	o, _ := core.NewOnion2D(64)
	s, err := Open(path, o)
	if err != nil {
		t.Fatal(err)
	}
	pages := int64(len(s.firstKeys))
	dataOff, marksOff := s.dataOff, s.dataOff+pages*int64(s.pageBytes)
	footOff := marksOff + int64(len(s.marks))
	s.Close()
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := footOff + 12*pages + 4; int64(len(orig)) != want {
		t.Fatalf("file is %d bytes, want %d", len(orig), want)
	}
	// without returns orig less its byte at off.
	without := func(off int64) []byte {
		return append(append([]byte(nil), orig[:off]...), orig[off+1:]...)
	}
	for _, tc := range []struct {
		name string
		b    []byte
		want string
	}{
		{"one byte appended to the footer", append(append(append([]byte(nil), orig[:len(orig)-4]...), 0), orig[len(orig)-4:]...), "trailing footer bytes"},
		{"first fence byte dropped", without(footOff), "short pruning footer"},
		{"last page checksum byte dropped", without(int64(len(orig)) - 5), "short pruning footer"},
	} {
		resealMeta(tc.b, dataOff, marksOff)
		p := filepath.Join(t.TempDir(), "length.pst")
		if err := os.WriteFile(p, tc.b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(p, o); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: open = %v, want ErrCorrupt: %s", tc.name, err, tc.want)
		}
	}
}

// TestCountTableRejected: the page index's record counts must each be at
// least 1 and sum to the header's record count, each page's key width must
// be at most 32 bits, and a page's records at its width must fit the page,
// or Open rejects the file — even when the metadata checksum is resealed
// over the edit. The mark bitmap holds one bit per record, so it is
// exactly ⌈records/8⌉ bytes: one byte short is damage too.
func TestCountTableRejected(t *testing.T) {
	path := writeStore(t, 300)
	o, _ := core.NewOnion2D(64)
	s, err := Open(path, o)
	if err != nil {
		t.Fatal(err)
	}
	pages := int64(len(s.firstKeys))
	count, width := s.counts[0], s.widths[0]
	pageBytes := uint32(s.pageBytes)
	dataOff, marksOff := s.dataOff, s.dataOff+pages*int64(s.pageBytes)
	if len(s.marks) != (s.Len()+7)/8 {
		t.Fatalf("mark bitmap of %d bytes for %d records", len(s.marks), s.Len())
	}
	s.Close()
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if fits(int(count), maxWidth, int(pageBytes)) {
		t.Fatalf("page 0's %d records fit its page at 32 bits a key: the table tests nothing", count)
	}
	count0 := 40 + 8*pages  // the first page's record count
	width0 := 40 + 12*pages // the first page's key width
	// page0 sets the first page's count and width and adds delta to the
	// header's record count.
	page0 := func(n uint32, w byte, delta int64) func(b []byte) []byte {
		return func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[count0:], n)
			b[width0] = w
			binary.LittleEndian.PutUint64(b[24:], uint64(int64(binary.LittleEndian.Uint64(b[24:]))+delta))
			return b
		}
	}
	for _, tc := range []struct {
		name string
		edit func(b []byte) []byte
		want string
	}{
		{"counts do not sum to the header", page0(count-1, width, 0), "page counts sum to"},
		{"an empty page", page0(0, width, -int64(count)), "page 0: 0 records"},
		{"a width above 32", page0(count, maxWidth+1, 0), "page 0: key width 33 over 32"},
		{"records that do not fit the page at their width", page0(count, maxWidth, 0),
			fmt.Sprintf("page 0: %d records of 32-bit keys overflow a %d-byte page", count, pageBytes)},
		{"more records than the page holds at width 0", page0(pageBytes/8+1, 0, int64(pageBytes/8+1-count)),
			fmt.Sprintf("page 0: %d records of 0-bit keys overflow", pageBytes/8+1)},
		{"a mark bitmap one byte short", func(b []byte) []byte {
			return append(b[:marksOff:marksOff], b[marksOff+1:]...)
		}, "short pruning footer"},
	} {
		b := tc.edit(append([]byte(nil), orig...))
		resealMeta(b, dataOff, marksOff)
		p := filepath.Join(t.TempDir(), "counts.pst")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := Open(p, o); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: open = %v, want ErrCorrupt: %s", tc.name, err, tc.want)
		}
	}
}

// TestSlotZeroOffsetRejected: a page's first record holds the page's
// first key, so its key offset is 0. A page whose first offset says
// otherwise fails VerifyPages as ErrCorrupt even with its checksum and the
// metadata checksum resealed over the edit.
func TestSlotZeroOffsetRejected(t *testing.T) {
	path := writeStore(t, 300)
	o, _ := core.NewOnion2D(64)
	s, err := Open(path, o)
	if err != nil {
		t.Fatal(err)
	}
	const p = 4
	pages := int64(len(s.firstKeys))
	page := s.dataOff + p*int64(s.pageBytes)
	dataOff, marksOff := s.dataOff, s.dataOff+pages*int64(s.pageBytes)
	sumOff := marksOff + int64(len(s.marks)) + 8*pages + 4*p
	pageBytes := int64(s.pageBytes)
	s.Close()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if s.widths[p] == 0 {
		t.Fatalf("page %d has key width 0: no offset bit to set", p)
	}
	b[page] |= 1 // bit 0 of the key column: the first offset's low bit
	binary.LittleEndian.PutUint32(b[sumOff:], crc32.Checksum(b[page:page+pageBytes], pageCRC))
	resealMeta(b, dataOff, marksOff)
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err = Open(path, o)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.VerifyPages(); !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), fmt.Sprintf("page %d: first record", p)) {
		t.Fatalf("VerifyPages with record 0 of page %d at offset 1 = %v, want ErrCorrupt", p, err)
	}
}

// TestRetiredVersionsRejected: nothing writes format versions 1 to 7 any
// more and Open no longer reads them — a header naming one is an
// unsupported version, not a file to reinterpret. That holds for a current
// file whose version field is overwritten (a v7 file differed in its
// 12-byte slots, each key offset in 32 bits beside its payload, in having
// no key widths and in a mark bit per slot, a v6 file also in the Bloom
// filter after its page checksums, a v5 file in its 16-byte slots, which
// held the whole key, and in having no record counts) and for a literal
// version-1 file (header, page index, pages, nothing after them) as the
// retired writer laid it out.
func TestRetiredVersionsRejected(t *testing.T) {
	path := writeStore(t, 300)
	o, _ := core.NewOnion2D(64)
	orig, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	files := map[string][]byte{}
	wantVer := map[string]uint32{}
	for _, ver := range []uint32{1, 2, 3, 4, 5, 6, 7} {
		mut := append([]byte(nil), orig...)
		binary.LittleEndian.PutUint32(mut[8:], ver)
		name := fmt.Sprintf("version-%d header", ver)
		files[name], wantVer[name] = mut, ver
	}
	// One record at (1,2) with payload 5, 64-byte pages, 64^2 universe.
	v1 := make([]byte, 40+8+64)
	binary.LittleEndian.PutUint64(v1[0:], magic)
	binary.LittleEndian.PutUint32(v1[8:], 1)
	binary.LittleEndian.PutUint32(v1[12:], 2)  // dims
	binary.LittleEndian.PutUint32(v1[16:], 64) // side
	binary.LittleEndian.PutUint32(v1[20:], 64) // page bytes
	binary.LittleEndian.PutUint64(v1[24:], 1)  // records
	binary.LittleEndian.PutUint64(v1[32:], 1)  // pages
	key := o.Index(geom.Point{1, 2})
	binary.LittleEndian.PutUint64(v1[40:], key) // page index
	binary.LittleEndian.PutUint64(v1[48:], key) // the record: key, coords, payload
	binary.LittleEndian.PutUint32(v1[56:], 1)
	binary.LittleEndian.PutUint32(v1[60:], 2)
	binary.LittleEndian.PutUint64(v1[64:], 5)
	files["literal version-1 file"], wantVer["literal version-1 file"] = v1, 1
	for name, b := range files {
		p := filepath.Join(t.TempDir(), "retired.pst")
		if err := os.WriteFile(p, b, 0o644); err != nil {
			t.Fatal(err)
		}
		_, err := Open(p, o)
		want := fmt.Sprintf("unsupported version %d", wantVer[name])
		if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), want) {
			t.Fatalf("open of a %s = %v, want ErrCorrupt: %s", name, err, want)
		}
	}
}

// FuzzVerifyCorrupt flips one byte anywhere in a valid file and asserts
// the corruption is always detected: either Open rejects the file, or a
// full scan plus VerifyPages reports ErrCorrupt. A store must never serve
// silently wrong data off a single flipped byte.
func FuzzVerifyCorrupt(f *testing.F) {
	path := writeStore(f, 400)
	orig, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	o, err := core.NewOnion2D(64)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(uint32(0), byte(0x01))    // magic
	f.Add(uint32(9), byte(0x80))    // version
	f.Add(uint32(26), byte(0xff))   // record count
	f.Add(uint32(37), byte(0x7f))   // page count high bytes
	f.Add(uint32(48), byte(0x20))   // page index
	f.Add(uint32(2000), byte(0x01)) // page data
	f.Add(uint32(len(orig)-3), byte(0x10))
	pages := binary.LittleEndian.Uint64(orig[32:])
	f.Add(uint32(40+8*pages+4*3), byte(0x01))           // record count of page 3
	f.Add(uint32(40+8*pages+4*(pages-1)+1), byte(0x80)) // record count of the last page, high byte
	f.Add(uint32(40+12*pages+5), byte(0x01))            // key width of page 5
	dataOff := uint32(40 + indexEntry*pages)
	pageBytes := binary.LittleEndian.Uint32(orig[20:])
	// keyColumn is the length of page p's key column.
	keyColumn := func(p uint32) uint32 {
		n := binary.LittleEndian.Uint32(orig[40+8*pages+4*uint64(p):])
		w := uint32(orig[40+12*pages+uint64(p)])
		return (n*w + 7) / 8
	}
	f.Add(dataOff+2*pageBytes+keyColumn(2)/2, byte(0x02))     // a packed key offset mid-page 2
	f.Add(dataOff+7*pageBytes, byte(0x01))                    // the first key offset of page 7, nonzero
	f.Add(dataOff+3*pageBytes+keyColumn(3)+8*2+1, byte(0x40)) // payload 2 of page 3
	f.Add(uint32(len(orig))-4-4*uint32(pages)-8, byte(0x01))  // last fence
	f.Add(uint32(len(orig))-8, byte(0x01))                    // last page checksum
	f.Fuzz(func(t *testing.T, off uint32, xor byte) {
		if xor == 0 {
			return
		}
		mut := make([]byte, len(orig))
		copy(mut, orig)
		mut[int(off)%len(mut)] ^= xor
		p := filepath.Join(t.TempDir(), "mut.pst")
		if err := os.WriteFile(p, mut, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := Open(p, o)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrMismatch) {
				t.Fatalf("open: unexpected error class: %v", err)
			}
			return
		}
		defer s.Close()
		if _, err := fullScan(s); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("scan: unexpected error class: %v", err)
			}
			return
		}
		if err := s.VerifyPages(); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("one-byte flip at %d^%#x survived open, scan and verify: %v",
				int(off)%len(mut), xor, err)
		}
	})
}

// resident reports whether page p of store s is in cache c.
func resident(c *Cache, s *Store, p int) bool {
	return s.cache == c && s.table.slots[p].Load() != nil
}

// TestFaultInsideRun: a fault in a multi-page read fails the query at the
// page it damaged, with the error class a page-at-a-time read gave it —
// ErrCorrupt for damaged or missing bytes, the I/O error itself (here
// vfs.ErrInjected) for a failed read — and leaves that page and every
// later page of the read out of the cache. The plan is three ranges of one
// page each, pages a..a+2, which the cursor fetches with one read; the
// store has distinct keys, so no other page holds a key of the plan.
func TestFaultInsideRun(t *testing.T) {
	o, _ := core.NewOnion2D(64)
	var ents []Entry
	for k := uint64(0); k < o.Universe().Size(); k += 3 {
		ents = append(ents, Entry{Key: k, Payload: k})
	}
	path := filepath.Join(t.TempDir(), "run.pst")
	if err := WriteEntries(vfs.OS{}, path, o, ents, 256); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	const a = 20
	for _, tc := range []struct {
		name    string
		damage  func(t *testing.T, s *Store, inj *vfs.Injecting, spy *spyFS)
		page    int  // the page the error names
		corrupt bool // ErrCorrupt; otherwise vfs.ErrInjected
		used    int  // pages of the read used, and so admitted, before the failure
	}{
		{"bit flip in the middle page", func(t *testing.T, s *Store, _ *vfs.Injecting, _ *spyFS) {
			flipByte(t, path, s.dataOff+int64(a+1)*int64(s.pageBytes)+40, 0x08)
		}, a + 1, true, 1},
		{"injected read failure", func(_ *testing.T, _ *Store, inj *vfs.Injecting, _ *spyFS) {
			inj.SetFaults(vfs.Fault{Op: vfs.OpRead, N: 1, Kind: vfs.KindFail})
		}, a, false, 0},
		{"injected read corruption", func(_ *testing.T, _ *Store, inj *vfs.Injecting, _ *spyFS) {
			inj.SetFaults(vfs.Fault{Op: vfs.OpRead, N: 1, Kind: vfs.KindCorrupt})
		}, a, true, 0},
		{"torn read", func(_ *testing.T, s *Store, _ *vfs.Injecting, spy *spyFS) {
			spy.cut = s.pageBytes + s.pageBytes/2
		}, a + 1, true, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if err := os.WriteFile(path, clean, 0o644); err != nil {
				t.Fatal(err)
			}
			spy := &spyFS{}
			inj := vfs.NewInjecting(spy)
			cache := NewCache(1 << 20)
			s, err := OpenCachedFS(inj, path, o, cache)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			var krs []curve.KeyRange
			for p := a; p < a+3; p++ {
				krs = append(krs, curve.KeyRange{Lo: s.firstKeys[p], Hi: s.pageMax[p]})
			}
			tc.damage(t, s, inj, spy)
			_, io, err := walkRanges(s, krs, nil)
			if errors.Is(err, ErrCorrupt) != tc.corrupt || errors.Is(err, vfs.ErrInjected) == tc.corrupt ||
				!strings.Contains(fmt.Sprint(err), fmt.Sprintf("page %d:", tc.page)) {
				t.Fatalf("walk = %v, want a fault at page %d (corrupt: %v)", err, tc.page, tc.corrupt)
			}
			if io.ReadCalls != 1 {
				t.Fatalf("io %+v: the three pages were not one read", io)
			}
			for p := a; p < a+3; p++ {
				if want := p < a+tc.used; resident(cache, s, p) != want {
					t.Fatalf("page %d resident = %v, want %v", p, !want, want)
				}
			}
		})
	}
}
