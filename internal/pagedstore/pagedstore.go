// Package pagedstore is a disk-backed table of multi-dimensional points
// physically clustered in space-filling-curve order: the on-disk
// realization of the paper's motivating scenario, where the clustering
// number of a query is the number of real file seeks its execution pays.
//
// The file layout is a fixed header, a page index (first curve key of
// every page), and fixed-size pages of records sorted by curve key. A
// rectangle query decomposes into cluster ranges (internal/ranges), maps
// each range to a run of pages via the index, and reads each run with one
// positioned read — seeks and pages are counted and returned.
//
// That is format version 1 (Write output): the bare reference layout the
// tests compare every other path against. Format version 4 (WriteMarked
// output) appends three things after the pages. A mark bitmap: one bit
// per record, in key order; marks are opaque to this package, and the LSM
// storage engine (internal/engine) uses them as tombstones in its
// immutable segments. A pruning footer: a fence table of per-page maximum
// keys and a Bloom filter over all keys. Integrity checksums: a crc32c
// per page, verified on every physical page fetch, and a trailing crc32c
// over all metadata (header, page index, marks, fences, page checksums,
// filter), verified at open — so any single flipped byte anywhere in a v4
// file is detected, either immediately at open or at the first read of
// the damaged page, and surfaces as ErrCorrupt. A version-1 file has
// none of the three: its fences are the page index bounds, its filter
// answers "maybe", its pages are unverified. Versions 2 and 3 were
// intermediate layouts nothing writes any more; Open rejects them.
//
// Logical vs physical accounting. Stats counts the LOGICAL access
// pattern: the positioned reads and pages the query plan pays on a bare
// store — the operational clustering number — and the records it decodes
// out of them. The seeks and pages are computed from the in-memory page
// index and the decoded records are exactly those whose key lies in a
// planned range, so none of it changes with caching, pruning or file
// version: it is bit-identical however a store is opened. The PHYSICAL
// I/O — pages actually fetched from the file — is tracked separately in
// IOStats: a page served by a Cache or proven recordless by the footer
// fences satisfies its logical visit without a disk read.
//
// An open Store is safe for concurrent use by any number of goroutines:
// every read is a positioned ReadAt (pread) on the shared descriptor — no
// shared file offset is ever moved — and all per-query state (page buffer,
// contiguity tracking, statistics) lives in a per-call Cursor.
package pagedstore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"sync"

	"github.com/onioncurve/onion/internal/cluster"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/ranges"
	"github.com/onioncurve/onion/internal/vfs"
)

const (
	magic = uint64(0x4f4e494f4e435256) // "ONIONCRV"
	// version 1: header, page index, pages.
	// version 4: version 1 plus, after the pages, a mark bitmap (one bit
	// per record, key order), a pruning footer (per-page max-key fences,
	// a crc32c per page, a key Bloom filter) and a trailing crc32c over
	// all metadata. Versions 2 and 3 are retired.
	version        = uint32(1)
	versionChecked = uint32(4)
)

// pageCRC is the checksum polynomial of the v4 integrity footer —
// crc32c, hardware-accelerated on every platform Go targets.
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

// Record is one stored point with an opaque payload.
type Record struct {
	Point   geom.Point
	Payload uint64
}

// Stats is the logical access pattern of one query: the positioned reads
// a bare store pays executing the plan. It is independent of page
// caching and footer pruning — those remove physical I/O (see IOStats),
// never logical accounting — so Stats is bit-identical for the same
// records and plan however the store is opened.
type Stats struct {
	Seeks     int // positioned reads at non-contiguous offsets
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
	// included). Without a cache and without a v4 footer it equals the
	// logical Stats.PagesRead.
	PagesFetched int
	// CacheHits counts logical page visits served from a Cache.
	CacheHits int
}

// Add accumulates b into s.
func (s *IOStats) Add(b IOStats) {
	s.PagesFetched += b.PagesFetched
	s.CacheHits += b.CacheHits
}

// recordSize returns the on-disk bytes per record: key + coords + payload.
func recordSize(dims int) int { return 8 + 4*dims + 8 }

// AppendRecord appends one record to dst, reusing the Point buffer
// already sitting in the slot it lands in when dst has spare capacity.
// It is the allocation-free building block of the QueryAppend-style
// APIs: recycling the same dst across queries reaches a steady state
// where no append allocates.
func AppendRecord(dst []Record, pt geom.Point, payload uint64) []Record {
	if len(dst) < cap(dst) {
		dst = dst[:len(dst)+1]
		r := &dst[len(dst)-1]
		r.Point = append(r.Point[:0], pt...)
		r.Payload = payload
		return dst
	}
	return append(dst, Record{Point: pt.Clone(), Payload: payload})
}

// Write bulk-loads records into path, clustered by c. Records may be in
// any order; they are sorted by curve key. The file is format version 1
// (no marks, no footer) for compatibility with earlier readers.
func Write(path string, c curve.Curve, recs []Record, pageBytes int) error {
	return writeFile(vfs.OS{}, path, c, recs, nil, pageBytes)
}

// WriteMarked is Write plus a per-record mark bit and the checked
// pruning footer (format version 4). The page layout is identical to
// Write's; the marks travel in a bitmap after the pages and are reported
// by Cursor.Next, the footer carries per-page max-key fences plus a key
// Bloom filter so narrow queries skip pages — physically, never
// logically — without touching disk, and the integrity checksums make
// every byte of the file tamper-evident. Marks are opaque here; the
// storage engine uses them as tombstones. marked must have one entry per
// record (a nil marked writes a plain version-1 file).
func WriteMarked(path string, c curve.Curve, recs []Record, marked []bool, pageBytes int) error {
	return WriteMarkedFS(vfs.OS{}, path, c, recs, marked, pageBytes)
}

// WriteMarkedFS is WriteMarked through an explicit filesystem — the seam
// the storage engine's fault injection drives.
func WriteMarkedFS(fsys vfs.FS, path string, c curve.Curve, recs []Record, marked []bool, pageBytes int) error {
	if marked != nil && len(marked) != len(recs) {
		return fmt.Errorf("pagedstore: %d marks for %d records", len(marked), len(recs))
	}
	return writeFile(fsys, path, c, recs, marked, pageBytes)
}

func writeFile(fsys vfs.FS, path string, c curve.Curve, recs []Record, marked []bool, pageBytes int) error {
	dims := c.Universe().Dims()
	rs := recordSize(dims)
	if pageBytes < rs {
		return fmt.Errorf("%w: %d < %d", ErrPageBytes, pageBytes, rs)
	}
	perPage := pageBytes / rs
	type keyed struct {
		key    uint64
		rec    Record
		marked bool
	}
	ks := make([]keyed, len(recs))
	for i, r := range recs {
		if !c.Universe().Contains(r.Point) {
			return fmt.Errorf("pagedstore: point %v outside universe %v", r.Point, c.Universe())
		}
		ks[i] = keyed{key: c.Index(r.Point), rec: r}
		if marked != nil {
			ks[i].marked = marked[i]
		}
	}
	sort.SliceStable(ks, func(a, b int) bool { return ks[a].key < ks[b].key })

	pageCount := (len(ks) + perPage - 1) / perPage
	f, err := fsys.Create(path)
	if err != nil {
		return fmt.Errorf("pagedstore: %w", err)
	}
	defer f.Close()

	ver := version
	if marked != nil {
		ver = versionChecked
	}
	// Header: magic, version, dims, side, pageBytes, recordCount, pageCount.
	head := make([]byte, 8+4+4+4+4+8+8)
	binary.LittleEndian.PutUint64(head[0:], magic)
	binary.LittleEndian.PutUint32(head[8:], ver)
	binary.LittleEndian.PutUint32(head[12:], uint32(dims))
	binary.LittleEndian.PutUint32(head[16:], c.Universe().Side())
	binary.LittleEndian.PutUint32(head[20:], uint32(pageBytes))
	binary.LittleEndian.PutUint64(head[24:], uint64(len(ks)))
	binary.LittleEndian.PutUint64(head[32:], uint64(pageCount))
	if _, err := f.Write(head); err != nil {
		return fmt.Errorf("pagedstore: %w", err)
	}
	// metaSum accumulates the v4 trailing checksum over every byte that
	// is not page data: the pages carry their own per-page checksums.
	metaSum := crc32.Update(0, pageCRC, head)
	// Page index: first key of each page.
	idx := make([]byte, 8*pageCount)
	for p := 0; p < pageCount; p++ {
		binary.LittleEndian.PutUint64(idx[8*p:], ks[p*perPage].key)
	}
	if _, err := f.Write(idx); err != nil {
		return fmt.Errorf("pagedstore: %w", err)
	}
	metaSum = crc32.Update(metaSum, pageCRC, idx)
	// Pages.
	buf := make([]byte, pageBytes)
	crcs := make([]byte, 4*pageCount)
	for p := 0; p < pageCount; p++ {
		for i := range buf {
			buf[i] = 0
		}
		off := 0
		for i := p * perPage; i < (p+1)*perPage && i < len(ks); i++ {
			binary.LittleEndian.PutUint64(buf[off:], ks[i].key)
			off += 8
			for d := 0; d < dims; d++ {
				binary.LittleEndian.PutUint32(buf[off:], ks[i].rec.Point[d])
				off += 4
			}
			binary.LittleEndian.PutUint64(buf[off:], ks[i].rec.Payload)
			off += 8
		}
		if _, err := f.Write(buf); err != nil {
			return fmt.Errorf("pagedstore: %w", err)
		}
		binary.LittleEndian.PutUint32(crcs[4*p:], crc32.Checksum(buf, pageCRC))
	}
	// Mark bitmap (version 4 only), one bit per record in key order.
	if marked != nil {
		bm := make([]byte, (len(ks)+7)/8)
		for i, k := range ks {
			if k.marked {
				bm[i/8] |= 1 << (i % 8)
			}
		}
		if _, err := f.Write(bm); err != nil {
			return fmt.Errorf("pagedstore: %w", err)
		}
		metaSum = crc32.Update(metaSum, pageCRC, bm)
		// Pruning footer: per-page max-key fences, the per-page
		// checksums, the key Bloom filter, then the metadata checksum.
		fences := make([]byte, 8*pageCount)
		for p := 0; p < pageCount; p++ {
			last := (p+1)*perPage - 1
			if last >= len(ks) {
				last = len(ks) - 1
			}
			binary.LittleEndian.PutUint64(fences[8*p:], ks[last].key)
		}
		if _, err := f.Write(fences); err != nil {
			return fmt.Errorf("pagedstore: %w", err)
		}
		metaSum = crc32.Update(metaSum, pageCRC, fences)
		if _, err := f.Write(crcs); err != nil {
			return fmt.Errorf("pagedstore: %w", err)
		}
		metaSum = crc32.Update(metaSum, pageCRC, crcs)
		keys := make([]uint64, len(ks))
		for i := range ks {
			keys[i] = ks[i].key
		}
		fb := buildFilter(keys).marshal()
		if _, err := f.Write(fb); err != nil {
			return fmt.Errorf("pagedstore: %w", err)
		}
		metaSum = crc32.Update(metaSum, pageCRC, fb)
		var tail [4]byte
		binary.LittleEndian.PutUint32(tail[:], metaSum)
		if _, err := f.Write(tail[:]); err != nil {
			return fmt.Errorf("pagedstore: %w", err)
		}
	}
	return f.Sync()
}

// Store is an open clustered table. It is safe for concurrent use: reads
// go through positioned ReadAt calls and all mutable query state lives in
// per-query Cursors.
type Store struct {
	f         vfs.File
	c         curve.Curve
	dims      int
	pageBytes int
	perPage   int
	count     uint64
	firstKeys []uint64
	dataOff   int64
	marks     []byte // version 4: one bit per record in key order; nil otherwise
	anyMarked bool

	// Pruning footer (version 4; nil/absent for version 1).
	pageMax []uint64   // fence: max key of each page
	filter  *keyFilter // Bloom filter over all keys
	// Integrity footer (version 4; nil for version 1): crc32c of every
	// page, verified on each physical fetch.
	pageSums []uint32

	id      uint64 // process-unique cache identity
	cache   *Cache // shared page cache, nil when uncached
	curPool sync.Pool
}

// Open validates the file against the curve and loads the page index
// (and, for version-4 files, the pruning footer). The store is
// uncached; see OpenCached.
func Open(path string, c curve.Curve) (*Store, error) {
	return OpenCached(path, c, nil)
}

// OpenCached is Open with a shared page cache: logical page visits are
// served from cache when resident, and misses populate it. A nil cache
// is equivalent to Open. The cache may back any number of stores; this
// store's pages are dropped from it on Close.
func OpenCached(path string, c curve.Curve, cache *Cache) (*Store, error) {
	return OpenCachedFS(vfs.OS{}, path, c, cache)
}

// OpenCachedFS is OpenCached through an explicit filesystem — the seam
// the storage engine's fault injection drives. For version-4 files every
// piece of metadata is checksum-verified here, so a corrupted header,
// page index or footer is rejected as ErrCorrupt before a single record
// is served; corrupted page data is caught by the per-page checksums at
// fetch time.
func OpenCachedFS(fsys vfs.FS, path string, c curve.Curve, cache *Cache) (*Store, error) {
	f, err := fsys.Open(path)
	if err != nil {
		return nil, fmt.Errorf("pagedstore: %w", err)
	}
	fi, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("pagedstore: %w", err)
	}
	fileSize := fi.Size()
	head := make([]byte, 40)
	if _, err := f.ReadAt(head, 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if binary.LittleEndian.Uint64(head[0:]) != magic {
		f.Close()
		return nil, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	ver := binary.LittleEndian.Uint32(head[8:])
	if ver != version && ver != versionChecked {
		f.Close()
		return nil, fmt.Errorf("%w: unsupported version", ErrCorrupt)
	}
	dims := int(binary.LittleEndian.Uint32(head[12:]))
	side := binary.LittleEndian.Uint32(head[16:])
	if dims != c.Universe().Dims() || side != c.Universe().Side() {
		f.Close()
		return nil, fmt.Errorf("%w: file is %dD side %d, curve is %v",
			ErrMismatch, dims, side, c.Universe())
	}
	pageBytes := int(binary.LittleEndian.Uint32(head[20:]))
	count := binary.LittleEndian.Uint64(head[24:])
	pageCount := binary.LittleEndian.Uint64(head[32:])
	rs := recordSize(dims)
	if pageBytes < rs {
		f.Close()
		return nil, fmt.Errorf("%w: page bytes %d", ErrCorrupt, pageBytes)
	}
	perPage := pageBytes / rs
	// Structural sanity before any sized allocation: a corrupted count
	// or page count must be rejected, not trusted as an allocation size.
	if pageCount > uint64(fileSize)/8 || count > pageCount*uint64(perPage) ||
		(pageCount > 0 && count <= (pageCount-1)*uint64(perPage)) {
		f.Close()
		return nil, fmt.Errorf("%w: %d records in %d pages", ErrCorrupt, count, pageCount)
	}
	idx := make([]byte, 8*pageCount)
	if _, err := f.ReadAt(idx, 40); err != nil {
		f.Close()
		return nil, fmt.Errorf("%w: short page index", ErrCorrupt)
	}
	firstKeys := make([]uint64, pageCount)
	for p := range firstKeys {
		firstKeys[p] = binary.LittleEndian.Uint64(idx[8*p:])
	}
	dataOff := int64(40 + 8*pageCount)
	var marks []byte
	anyMarked := false
	var pageMax []uint64
	var filter *keyFilter
	var pageSums []uint32
	marksOff := dataOff + int64(pageCount)*int64(pageBytes)
	// Every version has an exact expected length; trailing bytes mean the
	// version field itself is suspect (a v4 file whose header rotted down
	// to v1 must not silently serve its tombstoned records).
	if ver == version && fileSize != marksOff {
		f.Close()
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, fileSize-marksOff)
	}
	if ver == versionChecked {
		marks = make([]byte, (count+7)/8)
		if _, err := f.ReadAt(marks, marksOff); err != nil && count > 0 {
			f.Close()
			return nil, fmt.Errorf("%w: short mark bitmap", ErrCorrupt)
		}
		for _, b := range marks {
			if b != 0 {
				anyMarked = true
				break
			}
		}
		footOff := marksOff + int64(len(marks))
		// fences + page checksums + filter header + metadata checksum
		if fileSize < footOff+8*int64(pageCount)+4*int64(pageCount)+8+4 {
			f.Close()
			return nil, fmt.Errorf("%w: short pruning footer", ErrCorrupt)
		}
		foot := make([]byte, fileSize-footOff)
		if _, err := f.ReadAt(foot, footOff); err != nil {
			f.Close()
			return nil, fmt.Errorf("%w: short pruning footer", ErrCorrupt)
		}
		// Verify the metadata checksum before trusting anything in the
		// footer (the fences and page sums steer query execution; a
		// silent flip there would misroute reads).
		body := foot[:len(foot)-4]
		sum := crc32.Update(0, pageCRC, head)
		sum = crc32.Update(sum, pageCRC, idx)
		sum = crc32.Update(sum, pageCRC, marks)
		sum = crc32.Update(sum, pageCRC, body)
		if sum != binary.LittleEndian.Uint32(foot[len(foot)-4:]) {
			f.Close()
			return nil, fmt.Errorf("%w: metadata checksum mismatch", ErrCorrupt)
		}
		foot = body
		pageMax = make([]uint64, pageCount)
		for p := range pageMax {
			pageMax[p] = binary.LittleEndian.Uint64(foot[8*p:])
		}
		sumsOff := 8 * pageCount
		pageSums = make([]uint32, pageCount)
		for p := range pageSums {
			pageSums[p] = binary.LittleEndian.Uint32(foot[sumsOff+4*uint64(p):])
		}
		filterOff := sumsOff + 4*pageCount
		var ok bool
		filter, ok = unmarshalFilter(foot[filterOff:])
		if !ok {
			f.Close()
			return nil, fmt.Errorf("%w: malformed key filter", ErrCorrupt)
		}
		flen := uint64(8)
		if filter != nil {
			flen = 8 + 8*uint64(len(filter.words))
		}
		if uint64(len(foot)) != filterOff+flen {
			f.Close()
			return nil, fmt.Errorf("%w: trailing footer bytes", ErrCorrupt)
		}
	}
	return &Store{
		f:         f,
		c:         c,
		dims:      dims,
		pageBytes: pageBytes,
		perPage:   perPage,
		count:     count,
		firstKeys: firstKeys,
		dataOff:   dataOff,
		marks:     marks,
		anyMarked: anyMarked,
		pageMax:   pageMax,
		filter:    filter,
		pageSums:  pageSums,
		id:        storeIDs.Add(1),
		cache:     cache,
	}, nil
}

// Marked reports whether any record of the store carries a mark bit.
func (s *Store) Marked() bool { return s.anyMarked }

// Close releases the underlying file and drops the store's pages from
// its cache.
func (s *Store) Close() error {
	if s.cache != nil {
		s.cache.purge(s.id)
	}
	return s.f.Close()
}

// Len returns the number of stored records.
func (s *Store) Len() int { return int(s.count) }

// EstimateSeeks returns the clustering number of r under the store's
// curve — an upper bound on the positioned reads Query will issue —
// without touching the file. Curves with an analytic planner (the onion
// family, Hilbert, Z, Gray, linear orders) answer output-sensitively even
// for queries spanning billions of cells, which is what an admission
// controller or cost-based planner needs per request.
func (s *Store) EstimateSeeks(r geom.Rect) (uint64, error) {
	n, err := cluster.Count(s.c, r)
	if err != nil {
		return 0, fmt.Errorf("pagedstore: %w", err)
	}
	return n, nil
}

// Query returns every record whose point lies in r, reading one page run
// per cluster range and counting the logical access pattern. The range
// decomposition routes through the curve's analytic planner when one
// exists, so planning cost scales with the number of clusters rather than
// the query surface. Records whose mark bit is set (version-4 files)
// are scanned, and counted in Stats.RecordsScanned, but not returned.
// Query is safe to call from many goroutines at once; each call drives
// its own Cursor.
func (s *Store) Query(r geom.Rect) ([]Record, Stats, error) {
	return s.QueryAppend(nil, r)
}

// QueryAppend is Query appending into dst: recycling the same dst across
// queries reuses both the record slots and their Point buffers, so a
// steady-state caller allocates nothing per query. Stats.Results counts
// only the records this call appended.
func (s *Store) QueryAppend(dst []Record, r geom.Rect) ([]Record, Stats, error) {
	krs, err := ranges.Decompose(s.c, r, 0)
	if err != nil {
		return dst, Stats{}, fmt.Errorf("pagedstore: %w", err)
	}
	base := len(dst)
	cur := s.AcquireCursor()
	defer cur.Release()
	var rec Record
	for _, kr := range krs {
		cur.SeekRange(kr)
		for {
			marked, ok, err := cur.NextInto(&rec)
			if err != nil {
				return dst[:base], cur.Stats(), err
			}
			if !ok {
				break
			}
			if marked {
				continue
			}
			dst = AppendRecord(dst, rec.Point, rec.Payload)
		}
	}
	st := cur.Stats()
	st.Results = len(dst) - base
	return dst, st, nil
}

// Cursor streams the records of ascending key ranges out of a Store while
// accounting seeks, pages and records exactly as Query does: a positioned
// read at a non-contiguous page costs one seek, a page shared between the
// tail of one range and the head of the next is read once, and every
// record it yields counts as scanned. Inside a page it searches — binary
// search to the first key of the range, stop at the first key past it —
// so a visit costs a search plus the records it yields, not the page's
// slot count. The seek and page accounting is logical — computed against
// the in-memory page index — while the page bytes themselves come from
// the cache, from disk, or (when the v4 fences prove a visited page holds
// no key of the range) from nowhere at all; IO reports the physical
// remainder. Each Cursor owns its page state, so any number of cursors
// can run over the same Store concurrently. The storage engine's merged
// query path drives one Cursor per live segment.
type Cursor struct {
	s  *Store
	st Stats
	io IOStats

	buf      []byte // private page buffer (uncached stores), lazily allocated
	data     []byte // bytes of the most recently fetched page
	dataPage int    // physical page identity of data; -2 = none
	lastPage int    // last logically visited page; -2 = none
	// state of the in-progress range
	lo, hi  uint64
	p       int    // current page
	i       int    // next record slot within the page; == n once the page is done (or was pruned)
	n       int    // records resident in the current page; 0 = no page of the range visited yet
	key     uint64 // curve key of the last record Next returned
	active  bool
	skipAll bool // the key filter proved the whole range absent
}

// NewCursor returns a cursor with zeroed statistics and no page loaded.
// For query paths that run hot, AcquireCursor/Release recycle cursors
// through a per-store pool instead.
func (s *Store) NewCursor() *Cursor {
	return &Cursor{s: s, lastPage: -2, dataPage: -2}
}

// AcquireCursor returns a reset cursor from the store's pool (or a fresh
// one). Pair it with Release.
func (s *Store) AcquireCursor() *Cursor {
	if c, ok := s.curPool.Get().(*Cursor); ok {
		c.Reset()
		return c
	}
	return s.NewCursor()
}

// Release returns the cursor to its store's pool, dropping any page
// reference it still holds.
func (c *Cursor) Release() {
	c.data = nil
	c.dataPage = -2
	c.s.curPool.Put(c)
}

// Reset zeroes the cursor's statistics and position so it can be reused
// as if freshly created.
func (c *Cursor) Reset() {
	c.st = Stats{}
	c.io = IOStats{}
	c.data = nil
	c.dataPage = -2
	c.lastPage = -2
	c.active = false
	c.skipAll = false
	c.i, c.n = 0, 0
}

// Stats returns the logical access pattern accumulated so far. Results
// counts the records Next has yielded (marked or not).
func (c *Cursor) Stats() Stats { return c.st }

// IO returns the physical I/O performed so far: the pages actually
// fetched from the file and the visits served by the cache. Unlike
// Stats, it depends on cache state and footer pruning.
func (c *Cursor) IO() IOStats { return c.io }

// SeekRange positions the cursor at the start of the inclusive key range
// kr. Ranges must be visited in ascending, non-overlapping order for the
// contiguity accounting to mirror Query's.
func (c *Cursor) SeekRange(kr curve.KeyRange) {
	c.lo, c.hi = kr.Lo, kr.Hi
	// First page that can contain kr.Lo: the first page whose successor
	// starts at or after kr.Lo (duplicate keys may span page boundaries,
	// so the last page with firstKey <= kr.Lo is not necessarily the
	// earliest holder of kr.Lo).
	c.p = sort.Search(len(c.s.firstKeys), func(i int) bool {
		return i+1 >= len(c.s.firstKeys) || c.s.firstKeys[i+1] >= kr.Lo
	})
	c.i = 0
	c.n = 0
	c.active = true
	// Narrow ranges consult the key filter: if every key of the range is
	// provably absent, the logical page walk below runs without fetching
	// a single page.
	c.skipAll = false
	if f := c.s.filter; f != nil && kr.Hi-kr.Lo < filterMaxProbe {
		c.skipAll = true
		for key := kr.Lo; ; key++ {
			if f.mayContain(key) {
				c.skipAll = false
				break
			}
			if key == kr.Hi {
				break
			}
		}
	}
}

// residentCount returns the number of records stored in page p.
func (s *Store) residentCount(p int) int {
	if p == len(s.firstKeys)-1 {
		return int(s.count) - p*s.perPage
	}
	return s.perPage
}

// pageMaxBound returns an upper bound on the keys of page p: the exact
// fence for v4 files, the next page's first key otherwise (keys are
// globally sorted, so nothing in p exceeds it).
func (s *Store) pageMaxBound(p int) uint64 {
	if s.pageMax != nil {
		return s.pageMax[p]
	}
	if p+1 < len(s.firstKeys) {
		return s.firstKeys[p+1]
	}
	return ^uint64(0)
}

// fetch materializes the bytes of page p into c.data, consulting the
// cache first. The logical statistics are untouched — callers account
// the visit before deciding whether a fetch is needed at all.
func (c *Cursor) fetch(p int) error {
	if c.dataPage == p && c.data != nil {
		return nil
	}
	s := c.s
	admit := false
	if s.cache != nil {
		var b []byte
		if b, admit = s.cache.visit(s.id, p, s.pageBytes); b != nil {
			c.io.CacheHits++
			c.data, c.dataPage = b, p
			return nil
		}
	}
	// Miss (or no cache): a positioned read into the cursor's private
	// buffer. The cache takes its own copy only if the visit said it would
	// admit the page, so a miss the cache declines costs no allocation and
	// no second trip to its lock.
	if c.buf == nil {
		c.buf = make([]byte, s.pageBytes)
	}
	if _, err := s.f.ReadAt(c.buf, s.dataOff+int64(p)*int64(s.pageBytes)); err != nil {
		return pageReadErr(p, err)
	}
	c.io.PagesFetched++
	// Verify before admission: the cache must only ever hold pages that
	// passed their checksum, so a hit never needs re-verification.
	if s.pageSums != nil && crc32.Checksum(c.buf, pageCRC) != s.pageSums[p] {
		return fmt.Errorf("%w: page %d: checksum mismatch", ErrCorrupt, p)
	}
	if admit {
		s.cache.addCopy(s.id, p, c.buf)
	}
	c.data, c.dataPage = c.buf, p
	return nil
}

// Next returns the next record of the current range in key order, its mark
// bit, and whether a record was produced; ok == false means the range is
// exhausted. Errors report unreadable pages. Each returned record owns a
// freshly allocated Point; NextInto reuses a caller-supplied one.
func (c *Cursor) Next() (rec Record, marked bool, ok bool, err error) {
	marked, ok, err = c.NextInto(&rec)
	return rec, marked, ok, err
}

// NextInto is Next decoding into rec, reusing rec.Point's capacity: the
// allocation-free form the storage engine's merge loop drives. The
// record is only valid until the next NextInto call with the same rec.
//
// A page visit is a search, not a scan: a materialized page is entered at
// the lower bound of lo and left at the first key past hi, so the only
// slots decoded are the records the range yields. A visit the fences or
// the key filter prune, and a materialized page that turns out to hold no
// key of the range, decode nothing.
func (c *Cursor) NextInto(rec *Record) (marked bool, ok bool, err error) {
	if !c.active {
		return false, false, nil
	}
	s := c.s
	rs := recordSize(s.dims)
	for {
		if c.i < c.n {
			i := c.i
			off := i * rs
			if key := binary.LittleEndian.Uint64(c.data[off:]); key <= c.hi {
				c.i++
				pt := rec.Point
				if cap(pt) < s.dims {
					pt = make(geom.Point, s.dims)
				}
				pt = pt[:s.dims]
				for d := 0; d < s.dims; d++ {
					pt[d] = binary.LittleEndian.Uint32(c.data[off+8+4*d:])
				}
				rec.Point = pt
				rec.Payload = binary.LittleEndian.Uint64(c.data[off+8+4*s.dims:])
				c.st.RecordsScanned++
				c.st.Results++
				c.key = key
				return s.isMarked(c.p*s.perPage + i), true, nil
			}
			// Keys are sorted, so the first one past hi ends the page — and
			// the range: the next page starts at or after it, which the
			// advance below finds out from the page index.
			c.i = c.n
		}
		// Advance to the next page of the range. c.n > 0 means a page of
		// this range has been consumed and c.p must move past it; right
		// after SeekRange (c.n == 0) c.p already names the first candidate
		// page.
		if c.n > 0 {
			c.p++
			c.n = 0
		}
		if c.p >= len(s.firstKeys) || s.firstKeys[c.p] > c.hi {
			c.active = false
			return false, false, nil
		}
		// Logical accounting first — identical to a bare store's.
		if c.p != c.lastPage && c.p != c.lastPage+1 {
			c.st.Seeks++
		}
		if c.p != c.lastPage { // do not recount a shared boundary page
			c.st.PagesRead++
			c.lastPage = c.p
		}
		c.n = s.residentCount(c.p)
		// Physical fetch only when the page can hold a key of the range:
		// the filter may have proven the whole range absent, and the max
		// fence prunes a leading page that ends before lo. A pruned visit
		// yields nothing and leaves the previously fetched page in place —
		// a later range may still share it.
		if c.skipAll || s.pageMaxBound(c.p) < c.lo {
			c.i = c.n
			continue
		}
		if err := c.fetch(c.p); err != nil {
			c.active = false
			return false, false, err
		}
		// Enter the page at the first key >= lo. A page the range runs
		// into from its predecessor starts inside the range: slot 0.
		c.i = 0
		if c.lo > s.firstKeys[c.p] {
			c.i = lowerBound(c.data, rs, c.n, c.lo)
		}
	}
}

// lowerBound returns the first of the n key-sorted record slots of page
// whose key is >= lo, or n when every key is smaller.
func lowerBound(page []byte, rs, n int, lo uint64) int {
	i, j := 0, n
	for i < j {
		h := int(uint(i+j) >> 1)
		if binary.LittleEndian.Uint64(page[h*rs:]) < lo {
			i = h + 1
		} else {
			j = h
		}
	}
	return i
}

// Key returns the curve key of the record most recently returned by
// Next — the sort key of the stream, available to k-way merges without
// re-evaluating the curve's forward mapping.
func (c *Cursor) Key() uint64 { return c.key }

// isMarked reports the mark bit of the record at the given key-order
// position (always false for version-1 files).
func (s *Store) isMarked(i int) bool {
	if s.marks == nil {
		return false
	}
	return s.marks[i/8]&(1<<(i%8)) != 0
}

// KeySpan returns the inclusive curve-key interval the store covers, and
// ok == false for an empty store. It is the interval a quarantine report
// names when a store is pulled from service.
func (s *Store) KeySpan() (lo, hi uint64, ok bool) {
	if len(s.firstKeys) == 0 {
		return 0, 0, false
	}
	return s.firstKeys[0], s.pageMaxBound(len(s.firstKeys) - 1), true
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
// disk bytes have since rotted — and checked against its v4 checksum and
// the global key ordering. The first damaged page is reported as
// ErrCorrupt; a nil return means every byte of page data on disk is sound.
// For version-1 files only the structural key-order check runs.
func (s *Store) VerifyPages() error {
	buf := make([]byte, s.pageBytes)
	rs := recordSize(s.dims)
	prev := uint64(0)
	for p := range s.firstKeys {
		if _, err := s.f.ReadAt(buf, s.dataOff+int64(p)*int64(s.pageBytes)); err != nil {
			return pageReadErr(p, err)
		}
		if s.pageSums != nil && crc32.Checksum(buf, pageCRC) != s.pageSums[p] {
			return fmt.Errorf("%w: page %d: checksum mismatch", ErrCorrupt, p)
		}
		for i := 0; i < s.residentCount(p); i++ {
			key := binary.LittleEndian.Uint64(buf[i*rs:])
			if (p > 0 || i > 0) && key < prev {
				return fmt.Errorf("%w: page %d: keys out of order", ErrCorrupt, p)
			}
			if key < s.firstKeys[p] || key > s.pageMaxBound(p) {
				return fmt.Errorf("%w: page %d: key outside page bounds", ErrCorrupt, p)
			}
			prev = key
		}
	}
	return nil
}

// Pages returns the number of data pages — the granularity VerifyPage
// (and the engine's rate-limited scrubber) works at.
func (s *Store) Pages() int { return len(s.firstKeys) }

// VerifyPage checks one page directly from disk (bypassing the cache):
// the v4 checksum, in-page key order, and the page-bounds invariant.
// buf is an optional scratch buffer of at least PageBytes; pass nil to
// allocate. It runs the same checks VerifyPages does for that page, so a
// store whose every page passes VerifyPage is clean.
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

// PageBytes returns the store's page size.
func (s *Store) PageBytes() int { return s.pageBytes }

// checkPage validates one materialized page against its checksum and
// key invariants.
func (s *Store) checkPage(p int, buf []byte) error {
	if s.pageSums != nil && crc32.Checksum(buf, pageCRC) != s.pageSums[p] {
		return fmt.Errorf("%w: page %d: checksum mismatch", ErrCorrupt, p)
	}
	rs := recordSize(s.dims)
	prev := uint64(0)
	for i := 0; i < s.residentCount(p); i++ {
		key := binary.LittleEndian.Uint64(buf[i*rs:])
		if i > 0 && key < prev {
			return fmt.Errorf("%w: page %d: keys out of order", ErrCorrupt, p)
		}
		if key < s.firstKeys[p] || key > s.pageMaxBound(p) {
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
	// Records, Keys and Marked are the records of every CRC-clean page in
	// key order: the record, its curve key, and its tombstone mark.
	Records []Record
	Keys    []uint64
	Marked  []bool
	// Damaged is the sorted, disjoint set of inclusive key intervals
	// whose records may be lost — the bounds of every failed page, with
	// adjacent intervals merged.
	Damaged []curve.KeyRange
}

// SalvageFS reads the store file at path as tolerantly as possible. A
// file whose metadata fails verification yields MetaOK == false and a
// Damaged set covering the entire key space; otherwise each data page is
// checked exactly as VerifyPages would, clean pages contribute their
// records and damaged pages contribute their fence interval to Damaged.
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
	rs := recordSize(s.dims)
	for p := range s.firstKeys {
		pageErr := error(nil)
		if _, err := s.f.ReadAt(buf, s.dataOff+int64(p)*int64(s.pageBytes)); err != nil {
			pageErr = pageReadErr(p, err)
			if !errors.Is(pageErr, ErrCorrupt) {
				return Salvage{}, pageErr // I/O trouble, not damage: report it
			}
		} else {
			pageErr = s.checkPage(p, buf)
		}
		if pageErr != nil {
			sv.BadPages++
			lo, hi := s.firstKeys[p], s.pageMaxBound(p)
			if n := len(sv.Damaged); n > 0 && (sv.Damaged[n-1].Hi == ^uint64(0) || lo <= sv.Damaged[n-1].Hi+1) {
				if hi > sv.Damaged[n-1].Hi {
					sv.Damaged[n-1].Hi = hi
				}
			} else {
				sv.Damaged = append(sv.Damaged, curve.KeyRange{Lo: lo, Hi: hi})
			}
			continue
		}
		for i := 0; i < s.residentCount(p); i++ {
			off := i * rs
			key := binary.LittleEndian.Uint64(buf[off:])
			pt := make(geom.Point, s.dims)
			for d := 0; d < s.dims; d++ {
				pt[d] = binary.LittleEndian.Uint32(buf[off+8+4*d:])
			}
			sv.Records = append(sv.Records, Record{Point: pt, Payload: binary.LittleEndian.Uint64(buf[off+8+4*s.dims:])})
			sv.Keys = append(sv.Keys, key)
			sv.Marked = append(sv.Marked, s.isMarked(p*s.perPage+i))
		}
	}
	return sv, nil
}
