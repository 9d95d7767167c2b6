// Package pagedstore is a disk-backed table of multi-dimensional points
// physically clustered in space-filling-curve order: the on-disk
// realization of the paper's motivating scenario, where the clustering
// number of a query is the number of real file seeks its execution pays.
//
// One stored version is an Entry: its curve key, an opaque payload and a
// mark bit. The curve is a bijection between cells and keys, so the key is
// the point's whole identity: files, cursors and the engine's merges move
// keys only, and a record's point is Coords(Key), rebuilt once when the
// record leaves a query (KeyedRecords). Marks are opaque to this package;
// the LSM storage engine (internal/engine) uses them as tombstones in its immutable segments, and holds the same Entry
// in its memtable iterators, merge heads and flush runs, so a run goes
// from memory to the file and back without changing shape.
//
// There is one file layout. A fixed header, a page index (first curve key,
// record count and key width of every page), and fixed-size pages sorted
// by curve key, in every dimension. A page holds two columns: first the
// keys, each stored as its offset from the page's first key, bit-packed
// at the page's key width w (at most 32 bits: the bit length of the
// page's last key less its first), then the 8-byte payloads. The page
// index already brackets every key of the page, so a page stores only
// the differences, and no wider than its own keys need: w + 7 ≤ 39 bits,
// so one unaligned 64-bit load reads any offset, and with the payloads
// after the key column that load never leaves the page. The writer fills
// a page greedily while its n records fit, n·8 + ⌈n·w/8⌉ ≤ pageBytes,
// and w stays at most 32 — so a page whose next key lies 2³² or more past
// its first ends early, which only a curve with more keys than that can
// produce. A rectangle query decomposes into cluster ranges
// (internal/ranges) and maps each range to a run of pages via the index —
// seeks and pages are counted and returned. Pages are read in runs, not
// per range: one positioned read fetches the consecutive pages the plan
// fetches next and no cache holds, however many ranges they span, up to
// 32 pages (see Cursor).
//
// After the pages come three things, and nothing else. A mark bitmap: one
// bit per record, in key order, so record i of page p owns bit
// (records before page p) + i. A pruning footer: a fence table of
// per-page maximum keys, the one structure that lets a visit skip its page
// without a read. Integrity checksums: a crc32c per page, verified before
// a fetched page is first used, and a trailing crc32c over all metadata
// (header, page index, record counts and key widths, marks, fences, page
// checksums), verified at open — so any single flipped byte anywhere in a
// file is detected, either immediately at open or at the first use of the
// damaged page, and surfaces as ErrCorrupt. The file has one exact length.
// The header calls this layout version 8; versions 1 to 7 were earlier
// layouts nothing writes any more (version 7 stored every key offset in
// 32 bits, version 6 also carried a Bloom filter over all keys, version 5
// stored each key in 8 bytes, version 4 the coordinates beside it), and
// Open rejects them.
//
// Logical vs physical accounting. Stats counts the LOGICAL access
// pattern: the seeks and pages the query plan pays on a bare store — the
// operational clustering number — and the records it decodes
// out of them. The seeks and pages are computed from the in-memory page
// index and the decoded records are exactly those whose key lies in a
// planned range, so none of it changes with caching or pruning: it is
// bit-identical however a store is opened. The PHYSICAL I/O — pages
// actually fetched from the file, and the positioned reads that fetched
// them — is tracked separately in IOStats: a page served by a Cache or
// proven recordless by its footer fence satisfies its logical visit
// without a disk read.
//
// An open Store is safe for concurrent use by any number of goroutines:
// every read is a positioned ReadAt (pread) on the shared descriptor — no
// shared file offset is ever moved — and all per-query state (plan
// schedule, run buffer, contiguity tracking, statistics) lives in a
// per-call Cursor.
package pagedstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math/bits"
	"sort"
	"sync"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/ranges"
	"github.com/onioncurve/onion/internal/vfs"
)

const (
	magic = uint64(0x4f4e494f4e435256) // "ONIONCRV"
	// version names the one layout: header, page index (first keys, then
	// record counts, then key widths), pages of a bit-packed key column and
	// a payload column, then a mark bitmap (one bit per record), a pruning
	// footer (per-page max-key fences, a crc32c per page) and a trailing
	// crc32c over all metadata. Versions 1 to 7 are retired.
	version = uint32(8)
	// recordSize is the most on-disk bytes one record takes: its payload
	// and a key offset of at most maxWidth bits. A page must hold at least
	// that, so any one record fits it.
	recordSize = 8 + maxWidth/8
	// maxWidth bounds the key width of a page: each of its keys lies less
	// than 2^maxWidth past the page's first key.
	maxWidth = 32
)

// pageCRC is the checksum polynomial of the integrity footer — crc32c,
// hardware-accelerated on every platform Go targets.
var pageCRC = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrCorrupt reports an unreadable or malformed store file.
	ErrCorrupt = errors.New("pagedstore: corrupt store file")
	// ErrMismatch reports a store written under a different curve or
	// universe than the one used to open it.
	ErrMismatch = errors.New("pagedstore: store does not match curve")
	// ErrPageBytes reports an unusable page size.
	ErrPageBytes = errors.New("pagedstore: page size too small for a record")
)

// Record is one stored point with an opaque payload: what a query returns.
type Record struct {
	Point   geom.Point
	Payload uint64
}

// Entry is one stored version: the tuple a store file holds per record and
// the one shape it travels in between the engine's memtable and the file.
// Key is the point's curve key — the writer trusts it, it does not
// re-evaluate the curve. Marked is opaque here (the engine's tombstone).
type Entry struct {
	Key     uint64
	Payload uint64
	Marked  bool
}

// Stats is the logical access pattern of one query: the page visits a
// bare store pays executing the plan. It is independent of page caching,
// footer pruning and how pages are grouped into reads — those shape
// physical I/O (see IOStats), never logical accounting — so Stats is
// bit-identical for the same records and plan however the store is
// opened.
type Stats struct {
	Seeks     int // visits to a page not contiguous with the page visited last
	PagesRead int
	// RecordsScanned counts the records decoded from pages: those whose
	// key lies in a range of the plan, marked ones included. A cursor
	// enters a page at the lower bound of the range and leaves it at the
	// first key past the end, so nothing else is ever decoded; a visit
	// that is pruned, or whose page holds no key of the range, adds 0.
	// What it exceeds Results by is what was read and not returned —
	// marked records here, shadowed versions and tombstones once an
	// engine sums it over segments.
	RecordsScanned int
	Results        int
}

// IOStats is the physical I/O a cursor actually performed: the
// disk-touching remainder of the logical plan after the cache and the
// pruning footer have been consulted.
type IOStats struct {
	// PagesFetched counts pages read from the file (cache misses
	// included); never more than the logical Stats.PagesRead.
	PagesFetched int
	// CacheHits counts logical page visits served from a Cache.
	CacheHits int
	// ReadCalls counts the positioned reads actually issued. One read
	// fetches a run of consecutive pages the plan fetches next and the
	// cache does not hold — a run may span several ranges of the plan —
	// so it is at most PagesFetched. It is not Stats.Seeks: that is the
	// bare store's logical count, while a run also ends at a resident page.
	ReadCalls int
}

// Add accumulates b into s.
func (s *IOStats) Add(b IOStats) {
	s.PagesFetched += b.PagesFetched
	s.CacheHits += b.CacheHits
	s.ReadCalls += b.ReadCalls
}

// KeyedRecords is the read edge, where keys become points again: a query
// appends each record it returns by key and payload (Append), and Fill
// then writes all their points into the records' own Point buffers with
// one batch inverse of the curve — once per returned record, never for a
// shadowed version or a tombstone. Reused across queries with the same
// dst, it allocates nothing in the steady state.
type KeyedRecords struct {
	keys []uint64     // keys of the records appended since the last Fill
	pts  []geom.Point // Fill's scratch: views of those records' Points
}

// Append appends a record of payload to dst and notes key as its key;
// its Point is set by the next Fill. A slot dst already has capacity for
// keeps its Point buffer for Fill to overwrite.
func (k *KeyedRecords) Append(dst []Record, key, payload uint64) []Record {
	k.keys = append(k.keys, key)
	if len(dst) < cap(dst) {
		dst = dst[:len(dst)+1]
		dst[len(dst)-1].Payload = payload
		return dst
	}
	return append(dst, Record{Payload: payload})
}

// Fill sets the Point of every record appended since the last Fill — the
// last ones of dst — to the cell of its key, with one curve.CoordsBatch,
// and forgets the keys. A Point buffer too short for the universe's
// dimensions is replaced; the others are overwritten in place.
func (k *KeyedRecords) Fill(c curve.Curve, dst []Record) {
	recs := dst[len(dst)-len(k.keys):]
	dims := c.Universe().Dims()
	k.pts = k.pts[:0]
	for _, r := range recs {
		k.pts = append(k.pts, r.Point[:min(cap(r.Point), dims)]) // CoordsBatch replaces a short one
	}
	curve.CoordsBatch(c, k.keys, k.pts)
	for i := range recs {
		recs[i].Point = k.pts[i]
	}
	clear(k.pts) // hold no reference to the caller's records
	k.keys = k.keys[:0]
}

// Write bulk-loads records into path, clustered by c. Records may be in
// any order and come from outside the program: each point is checked
// against the universe, its curve key computed once, and the run
// stable-sorted by key (equal keys keep their input order) before it goes
// to WriteEntries. No record is marked.
func Write(path string, c curve.Curve, recs []Record, pageBytes int) error {
	ents := make([]Entry, len(recs))
	for i, r := range recs {
		if !c.Universe().Contains(r.Point) {
			return fmt.Errorf("pagedstore: point %v outside universe %v", r.Point, c.Universe())
		}
		ents[i] = Entry{Key: c.Index(r.Point), Payload: r.Payload}
	}
	sort.SliceStable(ents, func(a, b int) bool { return ents[a].Key < ents[b].Key })
	return WriteEntries(vfs.OS{}, path, c, ents, pageBytes)
}

// WriteEntries is the one writer of store files: it lays ents out at path
// through fsys — the seam the storage engine's fault injection drives —
// and syncs the file. ents must be in non-decreasing key order with every
// key inside the curve's key space; that is checked before the file is
// created, so bad input is an error that leaves nothing at path. Only
// keys, payloads and marks are written. The marks travel in a bitmap
// after the pages and come back in Entry.Marked; the footer carries
// per-page max-key fences so a visit to a page that ends before its range
// is skipped — physically, never logically — without
// touching disk, and the integrity checksums make every byte of the file
// tamper-evident.
func WriteEntries(fsys vfs.FS, path string, c curve.Curve, ents []Entry, pageBytes int) error {
	if pageBytes < recordSize {
		return fmt.Errorf("%w: %d < %d", ErrPageBytes, pageBytes, recordSize)
	}
	size := c.Universe().Size()
	// starts[p] is the first entry of page p and widths[p] its key width.
	// An entry joins the current page while the page, widened to the
	// entry's offset, still fits: a page ends when it is full or when the
	// next key lies 2^maxWidth or more past its first key.
	var starts []int
	var widths []byte
	for i := range ents {
		e := &ents[i]
		if e.Key >= size {
			return fmt.Errorf("pagedstore: entry %d: key %d outside key space [0,%d)", i, e.Key, size)
		}
		if i > 0 && e.Key < ents[i-1].Key {
			return fmt.Errorf("pagedstore: entry %d: key %d after key %d", i, e.Key, ents[i-1].Key)
		}
		if n := len(starts); n > 0 {
			if w := bits.Len64(e.Key - ents[starts[n-1]].Key); fits(i-starts[n-1]+1, w, pageBytes) {
				widths[n-1] = byte(w)
				continue
			}
		}
		starts = append(starts, i)
		widths = append(widths, 0)
	}
	pageCount := len(starts)
	starts = append(starts, len(ents)) // page p holds entries [starts[p], starts[p+1])
	f, err := fsys.Create(path)
	if err != nil {
		return fmt.Errorf("pagedstore: %w", err)
	}
	defer f.Close()

	// Every section but the pages feeds metaSum, the trailing checksum:
	// the pages carry their own per-page checksums.
	metaSum := uint32(0)
	writeMeta := func(b []byte) error {
		if _, err := f.Write(b); err != nil {
			return fmt.Errorf("pagedstore: %w", err)
		}
		metaSum = crc32.Update(metaSum, pageCRC, b)
		return nil
	}
	// Header: magic, version, dims, side, pageBytes, recordCount, pageCount.
	head := make([]byte, 8+4+4+4+4+8+8)
	binary.LittleEndian.PutUint64(head[0:], magic)
	binary.LittleEndian.PutUint32(head[8:], version)
	binary.LittleEndian.PutUint32(head[12:], uint32(c.Universe().Dims()))
	binary.LittleEndian.PutUint32(head[16:], c.Universe().Side())
	binary.LittleEndian.PutUint32(head[20:], uint32(pageBytes))
	binary.LittleEndian.PutUint64(head[24:], uint64(len(ents)))
	binary.LittleEndian.PutUint64(head[32:], uint64(pageCount))
	if err := writeMeta(head); err != nil {
		return err
	}
	// Page index (first key of each page, then the record count of each,
	// then the key width of each) and fences (last key of each).
	idx := make([]byte, indexEntry*pageCount)
	fences := make([]byte, 8*pageCount)
	for p := 0; p < pageCount; p++ {
		binary.LittleEndian.PutUint64(idx[8*p:], ents[starts[p]].Key)
		binary.LittleEndian.PutUint32(idx[8*pageCount+4*p:], uint32(starts[p+1]-starts[p]))
		idx[12*pageCount+p] = widths[p]
		binary.LittleEndian.PutUint64(fences[8*p:], ents[starts[p+1]-1].Key)
	}
	if err := writeMeta(idx); err != nil {
		return err
	}
	// Pages and the mark bitmap, in one pass. Entry i's mark is bit i: the
	// records before its page, plus its place in the page.
	buf := make([]byte, pageBytes)
	crcs := make([]byte, 4*pageCount)
	bm := make([]byte, markBytes(len(ents)))
	for p := 0; p < pageCount; p++ {
		clear(buf)
		page := ents[starts[p]:starts[p+1]]
		w := uint(widths[p])
		pay := keyBytes(len(page), int(w))
		for i := range page {
			e := &page[i]
			// The column is zeroed and offsets ascend in bit position, so
			// OR-ing each one in at its bit leaves the earlier ones intact.
			bit := uint(i) * w
			v := binary.LittleEndian.Uint64(buf[bit/8:]) | (e.Key-page[0].Key)<<(bit%8)
			binary.LittleEndian.PutUint64(buf[bit/8:], v)
			binary.LittleEndian.PutUint64(buf[pay+8*i:], e.Payload)
			if e.Marked {
				j := starts[p] + i
				bm[j/8] |= 1 << (j % 8)
			}
		}
		if _, err := f.Write(buf); err != nil {
			return fmt.Errorf("pagedstore: %w", err)
		}
		binary.LittleEndian.PutUint32(crcs[4*p:], crc32.Checksum(buf, pageCRC))
	}
	// Mark bitmap, then the pruning footer: fences, page checksums, and
	// last the metadata checksum.
	for _, section := range [][]byte{bm, fences, crcs} {
		if err := writeMeta(section); err != nil {
			return err
		}
	}
	var tail [4]byte
	binary.LittleEndian.PutUint32(tail[:], metaSum)
	if _, err := f.Write(tail[:]); err != nil {
		return fmt.Errorf("pagedstore: %w", err)
	}
	return f.Sync()
}

// indexEntry is the page index's bytes per page: its first key (8), its
// record count (4) and its key width (1), each in a column of its own.
const indexEntry = 8 + 4 + 1

// markBytes returns the length of the mark bitmap of a file of count
// records: one bit per record.
func markBytes(count int) int { return (count + 7) / 8 }

// keyBytes returns the length of the key column of a page of n records
// whose key offsets are w bits wide.
func keyBytes(n, w int) int { return (n*w + 7) / 8 }

// fits reports whether n records with w-bit key offsets fit a page of
// pageBytes: the width is at most maxWidth, and the key column and the
// payloads take no more than the page.
func fits(n, w, pageBytes int) bool {
	return w <= maxWidth && n*8+keyBytes(n, w) <= pageBytes
}

// keyOffset returns offset i of a page's key column, whose offsets are w
// bits wide: one unaligned 64-bit load at the byte holding the offset's
// first bit, shifted down and masked. It reads at most w + 7 ≤ 39 bits,
// and the load stays inside the page: the payload column follows the key
// column, so at least 8 bytes of page lie at or after any offset's first
// byte.
func keyOffset(page []byte, i int, w uint) uint64 {
	bit := uint(i) * w
	return binary.LittleEndian.Uint64(page[bit/8:]) >> (bit % 8) & (1<<w - 1)
}

// Store is an open clustered table. It is safe for concurrent use: reads
// go through positioned ReadAt calls and all mutable query state lives in
// per-query Cursors.
type Store struct {
	f         vfs.File
	c         curve.Curve
	pageBytes int
	count     uint64
	firstKeys []uint64 // first key of each page: the base of its key offsets
	counts    []uint32 // records of each page, at least 1
	widths    []uint8  // key width of each page, at most maxWidth
	before    []int    // records before each page: the first mark bit of the page
	dataOff   int64
	marks     []byte // one bit per record: record i of page p owns bit before[p]+i
	anyMarked bool

	pageMax  []uint64 // fence: max key of each page
	pageSums []uint32 // crc32c of every page, verified on each physical fetch

	cache   *Cache     // shared page cache, nil when uncached
	table   *pageTable // this store's resident pages in cache, nil when uncached
	curPool sync.Pool
}

// Open validates the file against the curve and loads its metadata: the
// page index, the marks and the pruning footer. The store is uncached;
// see OpenCachedFS.
func Open(path string, c curve.Curve) (*Store, error) {
	return OpenCachedFS(vfs.OS{}, path, c, nil)
}

// OpenCachedFS is Open through an explicit filesystem — the seam the
// storage engine's fault injection drives — with a shared page cache:
// logical page visits are served from cache when resident, and misses
// populate it. A nil cache leaves the store uncached. The cache may back
// any number of stores; this store's pages are dropped from it on Close.
// Every piece of metadata is checksum-verified here, so a corrupted
// header, page index or footer is rejected as ErrCorrupt before a single
// record is served; corrupted page data is caught by the per-page
// checksums at fetch time.
func OpenCachedFS(fsys vfs.FS, path string, c curve.Curve, cache *Cache) (*Store, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pagedstore: %w", err)
	}
	s, err := load(f, c)
	if err != nil {
		f.Close()
		return nil, err
	}
	if cache != nil {
		s.cache, s.table = cache, newPageTable(len(s.firstKeys))
	}
	return s, nil
}

// load reads and verifies the metadata of an open store file. The caller
// closes f when it fails.
func load(f vfs.File, c curve.Curve) (*Store, error) {
	fi, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("pagedstore: %w", err)
	}
	fileSize := fi.Size()
	head := make([]byte, 40)
	if _, err := f.ReadAt(head, 0); err != nil {
		return nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if binary.LittleEndian.Uint64(head[0:]) != magic {
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if ver := binary.LittleEndian.Uint32(head[8:]); ver != version {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrCorrupt, ver)
	}
	dims := int(binary.LittleEndian.Uint32(head[12:]))
	side := binary.LittleEndian.Uint32(head[16:])
	if dims != c.Universe().Dims() || side != c.Universe().Side() {
		return nil, fmt.Errorf("%w: file is %dD side %d, curve is %v",
			ErrMismatch, dims, side, c.Universe())
	}
	pageBytes := int(binary.LittleEndian.Uint32(head[20:]))
	count := binary.LittleEndian.Uint64(head[24:])
	pageCount := binary.LittleEndian.Uint64(head[32:])
	if pageBytes < recordSize {
		return nil, fmt.Errorf("%w: page bytes %d", ErrCorrupt, pageBytes)
	}
	// Structural sanity before any sized allocation: a corrupted page
	// count must be rejected, not trusted as an allocation size. Each page
	// takes pageBytes of the file and indexEntry bytes of its index.
	if pageCount > uint64(fileSize)/(uint64(pageBytes)+indexEntry) {
		return nil, fmt.Errorf("%w: %d pages of %d bytes", ErrCorrupt, pageCount, pageBytes)
	}
	idx := make([]byte, indexEntry*pageCount)
	if _, err := f.ReadAt(idx, 40); err != nil {
		return nil, fmt.Errorf("%w: short page index", ErrCorrupt)
	}
	s := &Store{
		f:         f,
		c:         c,
		pageBytes: pageBytes,
		count:     count,
		firstKeys: make([]uint64, pageCount),
		counts:    make([]uint32, pageCount),
		widths:    append([]uint8(nil), idx[12*pageCount:]...),
		before:    make([]int, pageCount),
		dataOff:   int64(40 + indexEntry*pageCount),
		pageMax:   make([]uint64, pageCount),
		pageSums:  make([]uint32, pageCount),
	}
	total := uint64(0)
	for p := range s.firstKeys {
		s.firstKeys[p] = binary.LittleEndian.Uint64(idx[8*p:])
		s.counts[p] = binary.LittleEndian.Uint32(idx[8*pageCount+4*uint64(p):])
		n, w := int(s.counts[p]), int(s.widths[p])
		switch {
		case n < 1:
			return nil, fmt.Errorf("%w: page %d: 0 records", ErrCorrupt, p)
		case w > maxWidth:
			return nil, fmt.Errorf("%w: page %d: key width %d over %d", ErrCorrupt, p, w, maxWidth)
		case !fits(n, w, pageBytes):
			return nil, fmt.Errorf("%w: page %d: %d records of %d-bit keys overflow a %d-byte page", ErrCorrupt, p, n, w, pageBytes)
		}
		s.before[p] = int(total)
		total += uint64(n)
	}
	if total != count {
		return nil, fmt.Errorf("%w: page counts sum to %d, header says %d records", ErrCorrupt, total, count)
	}
	s.marks = make([]byte, markBytes(int(count)))
	marksOff := s.dataOff + int64(pageCount)*int64(pageBytes)
	if _, err := f.ReadAt(s.marks, marksOff); err != nil && count > 0 {
		return nil, fmt.Errorf("%w: short mark bitmap", ErrCorrupt)
	}
	for _, b := range s.marks {
		if b != 0 {
			s.anyMarked = true
			break
		}
	}
	// The footer is fences + page checksums + metadata checksum, so the
	// file has one exact length: missing bytes and trailing bytes are
	// both damage.
	footOff := marksOff + int64(len(s.marks))
	foot := make([]byte, 12*pageCount+4)
	if fileSize > footOff+int64(len(foot)) {
		return nil, fmt.Errorf("%w: trailing footer bytes", ErrCorrupt)
	}
	if _, err := f.ReadAt(foot, footOff); err != nil {
		return nil, fmt.Errorf("%w: short pruning footer", ErrCorrupt)
	}
	// Verify the metadata checksum before trusting anything in the
	// footer (the fences and page sums steer query execution; a
	// silent flip there would misroute reads).
	body := foot[:len(foot)-4]
	sum := crc32.Update(0, pageCRC, head)
	sum = crc32.Update(sum, pageCRC, idx)
	sum = crc32.Update(sum, pageCRC, s.marks)
	sum = crc32.Update(sum, pageCRC, body)
	if sum != binary.LittleEndian.Uint32(foot[len(foot)-4:]) {
		return nil, fmt.Errorf("%w: metadata checksum mismatch", ErrCorrupt)
	}
	// A verified page's keys lie within its fence (checkPage), so a fence
	// inside the key space keeps every key a cursor or Salvage decodes a
	// key of the curve.
	size := c.Universe().Size()
	for p := range s.pageMax {
		s.pageMax[p] = binary.LittleEndian.Uint64(body[8*p:])
		if s.pageMax[p] >= size {
			return nil, fmt.Errorf("%w: page %d: fence %d outside key space", ErrCorrupt, p, s.pageMax[p])
		}
	}
	sumsOff := 8 * pageCount
	for p := range s.pageSums {
		s.pageSums[p] = binary.LittleEndian.Uint32(body[sumsOff+4*uint64(p):])
	}
	return s, nil
}

// Marked reports whether any record of the store carries a mark bit.
func (s *Store) Marked() bool { return s.anyMarked }

// Close releases the underlying file and drops the store's pages from
// its cache.
func (s *Store) Close() error {
	if s.cache != nil {
		s.cache.purge(s.table)
	}
	return s.f.Close()
}

// Len returns the number of stored records.
func (s *Store) Len() int { return int(s.count) }

// Query returns every record whose point lies in r, visiting one page run
// per cluster range and counting the logical access pattern. The range
// decomposition routes through the curve's analytic planner when one
// exists, so planning cost scales with the number of clusters rather than
// the query surface. Records whose mark bit is set are scanned, and
// counted in Stats.RecordsScanned, but not returned.
// Query is safe to call from many goroutines at once; each call drives
// its own Cursor. The points are rebuilt from the keys once the scan is
// done (KeyedRecords).
func (s *Store) Query(r geom.Rect) ([]Record, Stats, error) {
	krs, err := ranges.Decompose(s.c, r, 0)
	if err != nil {
		return nil, Stats{}, fmt.Errorf("pagedstore: %w", err)
	}
	cur := s.AcquireCursor()
	defer cur.Release()
	var dst []Record
	var e Entry
	var out KeyedRecords
	cur.Plan(krs)
	for cur.NextRange() {
		for {
			ok, err := cur.NextInto(&e)
			if err != nil {
				return nil, cur.Stats(), err
			}
			if !ok {
				break
			}
			if !e.Marked {
				dst = out.Append(dst, e.Key, e.Payload)
			}
		}
	}
	out.Fill(s.c, dst)
	st := cur.Stats()
	st.Results = len(dst)
	return dst, st, nil
}

// Cursor streams the records of a plan — ascending, disjoint key ranges —
// out of a Store while accounting seeks, pages and records exactly as
// Query does: a visit to a non-contiguous page costs one seek, a page
// shared between the tail of one range and the head of the next is read
// once, and every record it yields counts as scanned. The cursor is handed
// the whole plan once (Plan) and then walks it range by range: NextRange
// moves to the next range, and NextInto yields its records until it
// reports the range exhausted. Inside a page it searches — lower bound of
// the range, stop at the first key past it — so a visit costs a search
// plus the records it yields, not the page's record count. The seek and
// page accounting is logical — computed against the in-memory page index —
// while the page bytes themselves come from the cache, from disk, or
// (when a visited page's fence ends before the range) from nowhere at
// all; IO reports the physical remainder.
//
// Holding the whole plan is what lets a miss read more than one page. A
// cluster's pages often run on across several consecutive ranges of the
// plan, so on a miss the cursor looks ahead along the plan at the pages it
// will fetch next and visits each in the cache — the one visit each page
// gets, so the cache counters are those of a page-at-a-time walk. A visit
// takes no lock (a hit is one load of the store's page table), so the
// look-ahead costs no lock either, whatever the cache decides. It then
// reads the missed page and the non-resident pages directly after it with
// one ReadAt. The run stops at the first resident page (whose image is
// kept for its own visit), at a page the plan does not fetch, or at
// runPages pages. Each page of a run is checksum-verified, and offered to
// the cache, when the cursor first uses it — the one step that takes a
// cache shard's lock, and only for a page the cache admits; resident pages
// are never read.
//
// Each Cursor owns its page state, so any number of cursors can run over
// the same Store concurrently. The storage engine's merged query path
// drives one Cursor per live segment.
type Cursor struct {
	s  *Store
	st Stats
	io IOStats

	data     []byte // bytes of the most recently fetched page
	dataPage int    // physical page identity of data; -2 = none
	lastPage int    // last logically visited page; -2 = none

	plan  []curve.KeyRange
	sched []int // per range of plan: the first page that can hold its low key
	k     int   // index in plan of the current range; -1 before the first

	// state of the current range
	lo, hi uint64
	p      int  // current page
	i      int  // next record within the page
	n      int  // records resident in the current page; 0 = no page of the range visited yet
	w      uint // key width of the current page
	pay    int  // offset of the current page's payload column
	active bool

	// The last physical read: pages [runLo, runLo+runN) of the file in
	// runBuf (lazily grown, kept across pooled reuses). Bit j of runAdmit
	// says page runLo+j awaits admission to the cache. held is the image
	// of the resident page the run stopped at, already visited (a hit)
	// and not yet used.
	runBuf      []byte
	runLo, runN int
	runAdmit    uint32
	held        []byte
	heldPage    int
}

// runPages caps the pages one physical read fetches: 32 pages, 128 KiB of
// 4 KiB pages. It bounds the run buffer a cursor keeps; runs on query
// traffic are mostly a few pages long. It must not exceed 32, the bits of
// Cursor.runAdmit.
const runPages = 32

// NewCursor returns a cursor with zeroed statistics, an empty plan and no
// page loaded. For query paths that run hot, AcquireCursor/Release recycle
// cursors through a per-store pool instead.
func (s *Store) NewCursor() *Cursor {
	return &Cursor{s: s, lastPage: -2, dataPage: -2}
}

// AcquireCursor returns a reset cursor from the store's pool (or a fresh
// one). Pair it with Release.
func (s *Store) AcquireCursor() *Cursor {
	if c, ok := s.curPool.Get().(*Cursor); ok {
		return c // Release reset it
	}
	return s.NewCursor()
}

// Release returns the cursor to its store's pool, dropping any page and
// plan reference it still holds.
func (c *Cursor) Release() {
	c.Reset()
	c.s.curPool.Put(c)
}

// Reset zeroes the cursor's statistics, plan and position so it can be
// reused as if freshly created.
func (c *Cursor) Reset() {
	c.st = Stats{}
	c.io = IOStats{}
	c.data = nil
	c.dataPage = -2
	c.lastPage = -2
	c.Plan(nil)
}

// Stats returns the logical access pattern accumulated so far. Results
// counts the entries NextInto has yielded (marked or not).
func (c *Cursor) Stats() Stats { return c.st }

// IO returns the physical I/O performed so far: the pages actually
// fetched from the file, the positioned reads that fetched them, and the
// visits served by the cache. Unlike Stats, it depends on cache state and
// footer pruning.
func (c *Cursor) IO() IOStats { return c.io }

// Plan hands the cursor the key ranges it walks next: inclusive,
// ascending and disjoint, as a RangePlanner emits them. The cursor keeps
// krs until the plan is walked or replaced, so the caller must not modify
// it meanwhile. NextRange then moves to each range in turn. A cursor may
// be given several plans; its statistics accumulate across them, and they
// mirror Query's only if each plan's ranges lie past the previous plan's.
//
// Plan schedules every range before any page is touched: it finds each
// range's first page by searching forward from the previous range's.
func (c *Cursor) Plan(krs []curve.KeyRange) {
	c.plan, c.k = krs, -1
	c.active = false
	c.runN, c.runAdmit, c.held = 0, 0, nil
	c.sched = c.sched[:0]
	p := 0
	for _, kr := range krs {
		p = c.s.firstPage(p, kr.Lo)
		c.sched = append(c.sched, p)
	}
}

// NextRange moves the cursor to the next range of its plan and reports
// whether there was one. Whatever NextInto had not yet yielded of the
// previous range is skipped.
func (c *Cursor) NextRange() bool {
	if c.k+1 >= len(c.plan) {
		c.k, c.active = len(c.plan), false
		return false
	}
	c.k++
	kr := c.plan[c.k]
	c.lo, c.hi = kr.Lo, kr.Hi
	c.p = c.sched[c.k]
	c.i, c.n = 0, 0
	c.active = true
	return true
}

// firstPage returns the first page that can hold key lo: the first page
// whose successor starts at or after lo (duplicate keys may span page
// boundaries, so the last page with firstKey <= lo is not necessarily the
// earliest holder of lo). The answer must not lie before from, which makes
// the search a gallop forward from it: a plan's ranges ascend, so each
// range's first page is found from the previous one's in time logarithmic
// in the pages between them.
func (s *Store) firstPage(from int, lo uint64) int {
	fk := s.firstKeys
	last := len(fk) - 1
	if from >= last || fk[from+1] >= lo {
		return from
	}
	a, b := from+1, last // a <= answer <= b
	for step := 1; ; step *= 2 {
		j := from + step
		if j >= last {
			break
		}
		if fk[j+1] >= lo {
			b = j
			break
		}
		a = j + 1
	}
	for a < b {
		h := int(uint(a+b) >> 1)
		if fk[h+1] >= lo {
			b = h
		} else {
			a = h + 1
		}
	}
	return a
}

// fetch materializes the bytes of page p of the current range into
// c.data: from the last run read, from the resident page that run stopped
// at, from the cache, or — on a miss — from a new run read. The logical
// statistics are untouched — callers account the visit before deciding
// whether a fetch is needed at all.
func (c *Cursor) fetch(p int) error {
	if c.dataPage == p && c.data != nil {
		return nil
	}
	if j := p - c.runLo; j >= 0 && j < c.runN {
		return c.useRun(j)
	}
	if c.held != nil && c.heldPage == p {
		c.data, c.dataPage, c.held = c.held, p, nil
		return nil
	}
	s := c.s
	admit := false
	if s.cache != nil {
		var b []byte
		if b, admit = s.cache.visit(s.table, p, s.pageBytes); b != nil {
			c.io.CacheHits++
			c.data, c.dataPage = b, p
			return nil
		}
	}
	return c.readRun(p, admit)
}

// readRun serves a miss at page p of the current range, whose cache visit
// returned the admission verdict admit. It walks the plan forward from p
// over the visits the cursor will make next — through the rest of the
// range, then each following range from its scheduled first page —
// visiting in the cache each page that will be fetched. The run grows
// while the next fetched page is the one after its last, and stops at the
// first resident page, whose image is held for its own visit; at a gap,
// where the next page visited is further on; or at runPages pages. A
// visit that will not fetch — pruned by its page's fence, or a later
// range's visit of the run's last page — is stepped over. The run is then
// read with one ReadAt into the cursor's run buffer.
func (c *Cursor) readRun(p int, admit bool) error {
	s := c.s
	c.runN, c.runAdmit, c.held = 0, 0, nil
	if admit {
		c.runAdmit = 1
	}
	n := 1
	k, q := c.k, p // the plan's visit (range k, page q)
walk:
	for n < runPages {
		for q++; q >= len(s.firstKeys) || s.firstKeys[q] > c.plan[k].Hi; q = c.sched[k] {
			if k++; k == len(c.plan) {
				break walk
			}
		}
		if q > p+n {
			break
		}
		if q < p+n || s.pageMax[q] < c.plan[k].Lo {
			continue
		}
		if s.cache != nil {
			b, admit := s.cache.visit(s.table, q, s.pageBytes)
			if b != nil {
				c.io.CacheHits++
				c.held, c.heldPage = b, q
				break
			}
			if admit {
				c.runAdmit |= 1 << n
			}
		}
		n++
	}
	if need := n * s.pageBytes; len(c.runBuf) < need {
		c.runBuf = make([]byte, need)
	}
	got, err := s.f.ReadAt(c.runBuf[:n*s.pageBytes], s.dataOff+int64(p)*int64(s.pageBytes))
	c.io.ReadCalls++
	if err != nil {
		// The buffer may hold the current page; it is gone.
		c.data, c.dataPage, c.held = nil, -2, nil
		return pageReadErr(p+got/s.pageBytes, err)
	}
	c.io.PagesFetched += n
	c.runLo, c.runN = p, n
	return c.useRun(0)
}

// useRun makes page j of the last run the current page, verifying it
// first: the cache must only ever hold pages that passed their checksum,
// so a hit never needs re-verification, and the cache takes its own copy
// only if the page's visit said it would admit it — a miss the cache
// declines costs no allocation and no lock at all. A damaged
// page ends the run: neither it nor any page after it is used or
// admitted.
func (c *Cursor) useRun(j int) error {
	s := c.s
	p := c.runLo + j
	page := c.runBuf[j*s.pageBytes : (j+1)*s.pageBytes]
	if crc32.Checksum(page, pageCRC) != s.pageSums[p] {
		c.runN, c.runAdmit, c.held = 0, 0, nil
		return fmt.Errorf("%w: page %d: checksum mismatch", ErrCorrupt, p)
	}
	if c.runAdmit&(1<<j) != 0 {
		c.runAdmit &^= 1 << j
		s.cache.addCopy(s.table, p, page)
	}
	c.data, c.dataPage = page, p
	return nil
}

// NextInto decodes the next entry of the current range, in key order, into
// e — key, payload and mark — and reports whether there was one; ok ==
// false means the range is exhausted. Errors report unreadable pages.
//
// A page visit is a search, not a scan: a materialized page is entered at
// the lower bound of lo and left at the first key past hi, so the only
// keys unpacked are those of the records the range yields, and that one
// key past it. A visit its page's fence prunes, and a materialized page
// that turns out to hold no key of the range, decode nothing.
func (c *Cursor) NextInto(e *Entry) (ok bool, err error) {
	if !c.active {
		return false, nil
	}
	s := c.s
	for {
		if c.i < c.n {
			if key := s.firstKeys[c.p] + keyOffset(c.data, c.i, c.w); key <= c.hi {
				e.Key = key
				e.Payload = binary.LittleEndian.Uint64(c.data[c.pay+8*c.i:])
				e.Marked = s.marked(c.p, c.i)
				c.i++
				c.st.RecordsScanned++
				c.st.Results++
				return true, nil
			}
			// A key past hi ended the page's in-range records — and the
			// range: keys are sorted, so the next page starts at or after
			// that key, which the advance below finds out from the page
			// index.
			c.i = c.n
		}
		// Advance to the next page of the range. c.n > 0 means a page of
		// this range has been consumed and c.p must move past it; right
		// after NextRange (c.n == 0) c.p already names the first candidate
		// page.
		if c.n > 0 {
			c.p++
			c.n = 0
		}
		if c.p >= len(s.firstKeys) || s.firstKeys[c.p] > c.hi {
			c.active = false
			return false, nil
		}
		// Logical accounting first — identical to a bare store's.
		if c.p != c.lastPage && c.p != c.lastPage+1 {
			c.st.Seeks++
		}
		if c.p != c.lastPage { // do not recount a shared boundary page
			c.st.PagesRead++
			c.lastPage = c.p
		}
		c.n = int(s.counts[c.p])
		// Physical fetch only when the page can hold a key of the range:
		// the max fence prunes a leading page that ends before lo. A
		// pruned visit yields nothing and leaves the previously fetched
		// page in place — a later range may still share it.
		if s.pageMax[c.p] < c.lo {
			c.i = c.n
			continue
		}
		if err := c.fetch(c.p); err != nil {
			c.active = false
			return false, err
		}
		// Enter the page at the first key >= lo. A page the range runs
		// into from its predecessor starts inside the range: record 0.
		c.w = uint(s.widths[c.p])
		c.pay = keyBytes(c.n, int(c.w))
		c.i = 0
		if c.lo > s.firstKeys[c.p] {
			c.i = lowerBound(c.data, c.n, c.w, c.lo, s.firstKeys[c.p], s.pageMax[c.p])
		}
	}
}

// marked reports the mark bit of record i of page p.
func (s *Store) marked(p, i int) bool {
	j := uint(s.before[p] + i) // the record's ordinal: its bit in the mark bitmap
	return s.anyMarked && s.marks[j/8]&(1<<(j%8)) != 0
}

// decodeSlot returns record i of the materialized page p.
func (s *Store) decodeSlot(page []byte, p, i int) Entry {
	n, w := int(s.counts[p]), int(s.widths[p])
	return Entry{
		Key:     s.firstKeys[p] + keyOffset(page, i, uint(w)),
		Payload: binary.LittleEndian.Uint64(page[keyBytes(n, w)+8*i:]),
		Marked:  s.marked(p, i),
	}
}

// lowerBound returns the first of the n key-sorted records of page, whose
// key offsets are w bits wide, with a key >= lo, or n when every key is
// smaller. first is the page's first key, the base its offsets are added
// to; last is its last key, a hint that may cost time when wrong but never
// the answer. The search starts at the record lo would be were the keys
// spread evenly between them and gallops out from there to a bracket it
// then bisects: on evenly spread keys that touches a cache line or two of
// the key column where a bisection from the ends touches eight, and on any
// keys it costs at most about twice a bisection.
func lowerBound(page []byte, n int, w uint, lo, first, last uint64) int {
	key := func(i int) uint64 { return first + keyOffset(page, i, w) }
	g := 0 // the guess
	switch {
	case lo > last:
		g = n - 1
	case lo > first: // (lo-first)/(last-first) is in (0, 1]
		g = min(int(float64(lo-first)/float64(last-first)*float64(n-1)), n-1)
	}
	i, j := 0, n // the answer lies in [i, j]
	if key(g) < lo {
		i = g + 1
		for step := 1; g+step < n; step *= 2 {
			if key(g+step) >= lo {
				j = g + step
				break
			}
			i = g + step + 1
		}
	} else {
		j = g
		for step := 1; g-step >= 0; step *= 2 {
			if key(g-step) < lo {
				i = g - step + 1
				break
			}
			j = g - step
		}
	}
	for i < j {
		h := int(uint(i+j) >> 1)
		if key(h) < lo {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// KeySpan returns the inclusive curve-key interval the store covers, and
// ok == false for an empty store. It is the interval a quarantine report
// names when a store is pulled from service.
func (s *Store) KeySpan() (lo, hi uint64, ok bool) {
	if len(s.firstKeys) == 0 {
		return 0, 0, false
	}
	return s.firstKeys[0], s.pageMax[len(s.firstKeys)-1], true
}

// pageReadErr classifies a failed page read. A short read is structural
// corruption — the metadata promised bytes the file does not have — but
// any other failure is an I/O error that keeps its own identity, so a
// flaky disk does not get healthy segments quarantined as corrupt.
func pageReadErr(p int, err error) error {
	if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
		return fmt.Errorf("%w: page %d: %v", ErrCorrupt, p, err)
	}
	return fmt.Errorf("pagedstore: page %d: %w", p, err)
}

// VerifyPages scrubs the page data: every page is read straight from the
// file — bypassing the cache, which may hold a clean copy of a page whose
// disk bytes have since rotted — and checked as VerifyPage checks it, plus
// the one thing no single page shows: that keys do not step back from one
// page to the next. The first damaged page is reported as ErrCorrupt; a
// nil return means every byte of page data on disk is sound.
func (s *Store) VerifyPages() error {
	buf := make([]byte, s.pageBytes)
	prev := uint64(0)
	for p := range s.firstKeys {
		if err := s.VerifyPage(p, buf); err != nil {
			return err
		}
		if s.firstKeys[p] < prev {
			return fmt.Errorf("%w: page %d: keys out of order", ErrCorrupt, p)
		}
		prev = s.firstKeys[p] + keyOffset(buf, int(s.counts[p])-1, uint(s.widths[p]))
	}
	return nil
}

// Pages returns the number of data pages — the granularity VerifyPage
// works at.
func (s *Store) Pages() int { return len(s.firstKeys) }

// VerifyPage checks one page directly from disk (bypassing the cache):
// the checksum, in-page key order, and the page-bounds invariant. buf is
// an optional scratch buffer of at least a page, left holding the page;
// pass nil to allocate.
func (s *Store) VerifyPage(p int, buf []byte) error {
	if p < 0 || p >= len(s.firstKeys) {
		return nil
	}
	if len(buf) < s.pageBytes {
		buf = make([]byte, s.pageBytes)
	}
	buf = buf[:s.pageBytes]
	if _, err := s.f.ReadAt(buf, s.dataOff+int64(p)*int64(s.pageBytes)); err != nil {
		return pageReadErr(p, err)
	}
	return s.checkPage(p, buf)
}

// checkPage validates one materialized page against its checksum and
// key invariants: record 0 holds the page's first key (offset 0), and the
// keys ascend to no further than the page's fence.
func (s *Store) checkPage(p int, buf []byte) error {
	if crc32.Checksum(buf, pageCRC) != s.pageSums[p] {
		return fmt.Errorf("%w: page %d: checksum mismatch", ErrCorrupt, p)
	}
	w := uint(s.widths[p])
	if keyOffset(buf, 0, w) != 0 {
		return fmt.Errorf("%w: page %d: first record is not the page's first key", ErrCorrupt, p)
	}
	prev := s.firstKeys[p]
	for i := 0; i < int(s.counts[p]); i++ {
		key := s.firstKeys[p] + keyOffset(buf, i, w)
		if key < prev {
			return fmt.Errorf("%w: page %d: keys out of order", ErrCorrupt, p)
		}
		if key > s.pageMax[p] {
			return fmt.Errorf("%w: page %d: key outside page bounds", ErrCorrupt, p)
		}
		prev = key
	}
	return nil
}

// Salvage is the result of tolerantly reading a damaged store file:
// everything provably intact, plus the key intervals that may have been
// lost. Because records cluster along the curve, the damage of any one
// page is a single contiguous key interval — repair is interval
// arithmetic, not a table scan.
type Salvage struct {
	// MetaOK reports whether the file's metadata (header, page index,
	// fences, checksums) verified. When false nothing was salvaged and
	// Damaged spans the whole key space.
	MetaOK bool
	// Pages and BadPages count the data pages examined and failed.
	Pages, BadPages int
	// Entries holds the entries of every clean page in key order — ready
	// for WriteEntries.
	Entries []Entry
	// Damaged is the sorted, disjoint set of inclusive key intervals
	// whose records may be lost — the bounds of every failed page, with
	// adjacent intervals merged.
	Damaged []curve.KeyRange
}

// SalvageFS reads the store file at path as tolerantly as possible. A
// file whose metadata fails verification yields MetaOK == false and a
// Damaged set covering the entire key space; otherwise each data page is
// checked exactly as VerifyPage would, clean pages contribute their
// entries and damaged pages contribute their fence interval to Damaged.
// The error return reports only I/O failures reaching the file at all —
// corruption is data, not an error, here.
func SalvageFS(fsys vfs.FS, path string, c curve.Curve) (Salvage, error) {
	full := Salvage{Damaged: []curve.KeyRange{{Lo: 0, Hi: c.Universe().Size() - 1}}}
	s, err := OpenCachedFS(fsys, path, c, nil)
	if err != nil {
		if errors.Is(err, ErrCorrupt) || errors.Is(err, ErrMismatch) {
			return full, nil
		}
		return Salvage{}, err
	}
	defer s.Close()
	sv := Salvage{MetaOK: true, Pages: len(s.firstKeys)}
	buf := make([]byte, s.pageBytes)
	for p := range s.firstKeys {
		if err := s.VerifyPage(p, buf); err != nil {
			if !errors.Is(err, ErrCorrupt) {
				return Salvage{}, err // I/O trouble, not damage: report it
			}
			sv.BadPages++
			lo, hi := s.firstKeys[p], s.pageMax[p]
			if n := len(sv.Damaged); n > 0 && (sv.Damaged[n-1].Hi == ^uint64(0) || lo <= sv.Damaged[n-1].Hi+1) {
				if hi > sv.Damaged[n-1].Hi {
					sv.Damaged[n-1].Hi = hi
				}
			} else {
				sv.Damaged = append(sv.Damaged, curve.KeyRange{Lo: lo, Hi: hi})
			}
			continue
		}
		for i := 0; i < int(s.counts[p]); i++ {
			sv.Entries = append(sv.Entries, s.decodeSlot(buf, p, i))
		}
	}
	return sv, nil
}
