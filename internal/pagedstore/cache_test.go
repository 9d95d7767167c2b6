package pagedstore

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/ranges"
	"github.com/onioncurve/onion/internal/vfs"
)

// runCursorQuery executes a rectangle query through a cursor, returning
// the unmarked records plus both the logical and the physical tallies.
func runCursorQuery(t *testing.T, s *Store, r geom.Rect) ([]Record, Stats, IOStats) {
	t.Helper()
	krs, err := ranges.Decompose(s.c, r, 0)
	if err != nil {
		t.Fatal(err)
	}
	cur := s.AcquireCursor()
	defer cur.Release()
	var out []Record
	var recs KeyedRecords
	var e Entry
	cur.Plan(krs)
	for cur.NextRange() {
		for {
			ok, err := cur.NextInto(&e)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				break
			}
			if !e.Marked {
				out = recs.Append(out, e.Key, e.Payload)
			}
		}
	}
	recs.Fill(s.c, out)
	st := cur.Stats()
	st.Results = len(out)
	return out, st, cur.IO()
}

func equalRecs(t *testing.T, r geom.Rect, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%v: %d records, want %d", r, len(got), len(want))
	}
	for i := range want {
		if !got[i].Point.Equal(want[i].Point) || got[i].Payload != want[i].Payload {
			t.Fatalf("%v: record %d = %v/%d, want %v/%d",
				r, i, got[i].Point, got[i].Payload, want[i].Point, want[i].Payload)
		}
	}
}

// TestCachedStoreBitIdentical is the core cache contract: the same
// file opened bare and opened behind a tiny (eviction-stormy)
// cache must answer every query with bit-identical records AND logical
// Stats, while the cached side's physical page fetches drop below its
// logical page reads once the working set warms.
func TestCachedStoreBitIdentical(t *testing.T) {
	side := uint32(64)
	o, _ := core.NewOnion2D(side)
	recs := buildRecords(t, o.Universe(), 4000, 7)
	path := tmpPath(t)
	if err := Write(path, o, recs, 512); err != nil {
		t.Fatal(err)
	}
	bare, err := Open(path, o)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	cache := NewCache(16 * 512) // two pages per cache shard: constant eviction
	cached, err := OpenCachedFS(vfs.OS{}, path, o, cache)
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()

	rng := rand.New(rand.NewSource(3))
	var logicalPages, fetched int
	for trial := 0; trial < 200; trial++ {
		lo := geom.Point{uint32(rng.Intn(int(side) - 8)), uint32(rng.Intn(int(side) - 8))}
		r := geom.Rect{Lo: lo, Hi: geom.Point{lo[0] + 7, lo[1] + 7}}
		want, wst, wio := runCursorQuery(t, bare, r)
		got, gst, gio := runCursorQuery(t, cached, r)
		equalRecs(t, r, got, want)
		if gst != wst {
			t.Fatalf("%v: cached stats %+v != bare stats %+v", r, gst, wst)
		}
		// Physical work never exceeds logical work (the fences prune even
		// on the bare store), and the cached side only replaces fetches
		// with hits — it never adds physical reads.
		if wio.PagesFetched > wst.PagesRead || wio.CacheHits != 0 {
			t.Fatalf("%v: bare store io %+v for %d logical reads", r, wio, wst.PagesRead)
		}
		if gio.PagesFetched+gio.CacheHits > gst.PagesRead {
			t.Fatalf("%v: cached store fetched %d + hit %d > %d logical reads",
				r, gio.PagesFetched, gio.CacheHits, gst.PagesRead)
		}
		if gio.PagesFetched > wio.PagesFetched {
			t.Fatalf("%v: cache added physical reads: %d > %d", r, gio.PagesFetched, wio.PagesFetched)
		}
		logicalPages += wio.PagesFetched
		fetched += gio.PagesFetched
	}
	if fetched >= logicalPages {
		t.Fatalf("cache absorbed nothing: %d fetches vs %d bare fetches", fetched, logicalPages)
	}
	cst := cache.Stats()
	if cst.Hits == 0 || cst.Bytes > cst.Budget || cst.Pages > 16 {
		t.Fatalf("cache stats %+v", cst)
	}
}

// TestFencePruning: the fence table is the one pruning structure, and it
// prunes exactly. On a sparse store (every 5th curve key, so every page
// boundary leaves a gap of absent keys), each one-cell lookup returns the
// records and logical Stats of the unpruned linear walk of referenceQuery,
// and its physical I/O is pinned: a key between pageMax[p] and
// firstKeys[p+1] costs no fetch and no cache visit, and a key inside
// [firstKeys[p], pageMax[p]], present or not, fetches page p and nothing
// else.
func TestFencePruning(t *testing.T) {
	side := uint32(64)
	o, _ := core.NewOnion2D(side)
	u := o.Universe()
	var recs []Record
	p := make(geom.Point, 2)
	for key := uint64(0); key < u.Size(); key += 5 {
		o.Coords(key, p)
		recs = append(recs, Record{Point: p.Clone(), Payload: key})
	}
	path := tmpPath(t)
	if err := Write(path, o, recs, 512); err != nil {
		t.Fatal(err)
	}
	bare, err := Open(path, o)
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	cached, err := OpenCachedFS(vfs.OS{}, path, o, NewCache(1<<20))
	if err != nil {
		t.Fatal(err)
	}
	defer cached.Close()
	if len(bare.pageMax) != bare.Pages() {
		t.Fatal("store opened without its fence table")
	}

	// lookup walks the one-key plan with a fresh cursor and returns its
	// physical I/O and the page it last materialized (-2 for none).
	lookup := func(s *Store, key uint64) (IOStats, int) {
		cur := s.NewCursor()
		cur.Plan([]curve.KeyRange{{Lo: key, Hi: key}})
		var e Entry
		for cur.NextRange() {
			for {
				ok, err := cur.NextInto(&e)
				if err != nil {
					t.Fatal(err)
				}
				if !ok {
					break
				}
			}
		}
		return cur.IO(), cur.dataPage
	}
	var gaps, inside int
	for key := uint64(0); key < u.Size(); key++ {
		o.Coords(key, p)
		r := geom.Rect{Lo: p.Clone(), Hi: p.Clone()}
		want, wst, err := referenceQuery(bare, r)
		if err != nil {
			t.Fatal(err)
		}
		got, gst, _ := runCursorQuery(t, bare, r)
		equalRecs(t, r, got, want)
		if gst != wst {
			t.Fatalf("key %d: stats %+v != reference stats %+v", key, gst, wst)
		}
		if present := key%5 == 0; present != (len(got) == 1) || len(got) > 1 {
			t.Fatalf("key %d (present: %v) returned %d records", key, present, len(got))
		}
		// pg is the last page starting at or before key.
		pg := sort.Search(len(bare.firstKeys), func(i int) bool { return bare.firstKeys[i] > key }) - 1
		bio, bpage := lookup(bare, key)
		cio, cpage := lookup(cached, key)
		if key > bare.pageMax[pg] {
			gaps++
			if bio != (IOStats{}) || cio != (IOStats{}) {
				t.Fatalf("key %d in the gap after page %d: bare io %+v, cached io %+v, want none", key, pg, bio, cio)
			}
			continue
		}
		inside++
		if bio != (IOStats{PagesFetched: 1, ReadCalls: 1}) || bpage != pg {
			t.Fatalf("key %d inside page %d: bare io %+v on page %d, want one fetch of page %d", key, pg, bio, bpage, pg)
		}
		if cio.PagesFetched+cio.CacheHits != 1 || cio.PagesFetched != cio.ReadCalls || cpage != pg {
			t.Fatalf("key %d inside page %d: cached io %+v on page %d, want one visit of page %d", key, pg, cio, cpage, pg)
		}
	}
	if gaps == 0 || inside == 0 {
		t.Fatalf("%d gap keys and %d in-page keys: the store does not exercise both", gaps, inside)
	}
}

// TestCachePurgeOnClose: closing a store drops its pages from the shared
// cache so a dead segment stops occupying budget.
func TestCachePurgeOnClose(t *testing.T) {
	side := uint32(32)
	o, _ := core.NewOnion2D(side)
	recs := buildRecords(t, o.Universe(), 1000, 5)
	path := tmpPath(t)
	if err := Write(path, o, recs, 512); err != nil {
		t.Fatal(err)
	}
	cache := NewCache(1 << 20)
	s, err := OpenCachedFS(vfs.OS{}, path, o, cache)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Query(o.Universe().Rect()); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Pages == 0 {
		t.Fatalf("nothing cached: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if st := cache.Stats(); st.Pages != 0 || st.Bytes != 0 {
		t.Fatalf("pages survive close: %+v", st)
	}
}

// TestCachedParallelQueryRace hammers one cached store (cache small
// enough for eviction storms) from many goroutines; run under -race this
// pins the concurrency safety of the cache fast paths.
func TestCachedParallelQueryRace(t *testing.T) {
	side := uint32(64)
	o, _ := core.NewOnion2D(side)
	recs := buildRecords(t, o.Universe(), 5000, 21)
	path := tmpPath(t)
	if err := Write(path, o, recs, 512); err != nil {
		t.Fatal(err)
	}
	cache := NewCache(8 * 512)
	s, err := OpenCachedFS(vfs.OS{}, path, o, cache)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want, wantStats, err := s.Query(o.Universe().Rect())
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				got, st, err := s.Query(o.Universe().Rect())
				if err != nil {
					t.Error(err)
					return
				}
				if len(got) != len(want) || st != wantStats {
					t.Errorf("goroutine %d: %d records stats %+v, want %d %+v",
						g, len(got), st, len(want), wantStats)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// get is the hit-or-miss half of Cache.visit in the two-result shape
// TestCacheMonotonicCounters was written against; the verdict half needs
// the page size, which is 64 bytes for every page that test looks up.
func (c *Cache) get(store *pageTable, page int) ([]byte, bool) {
	buf, _ := c.visit(store, page, 64)
	return buf, buf != nil
}

// TestCacheMonotonicCounters pins the counter semantics of CacheStats:
// hits/misses/evictions/admission-rejects only ever grow, stay
// consistent under concurrent access, and the lock-free Counters()
// accessor reads the same values as a full Stats() snapshot.
func TestCacheMonotonicCounters(t *testing.T) {
	c := NewCache(cacheShardCount * 64) // one tiny 64-byte budget per shard
	page := make([]byte, 64)
	t1, t2, t3 := newPageTable(100), newPageTable(1000), newPageTable(5000)

	// Miss then hit on the same key.
	if _, ok := c.get(t1, 0); ok {
		t.Fatal("unexpected hit on empty cache")
	}
	c.addCopy(t1, 0, page)
	if _, ok := c.get(t1, 0); !ok {
		t.Fatal("expected hit after addCopy")
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("hits/misses = %d/%d, want 1/1", st.Hits, st.Misses)
	}

	// Oversized pages are rejected by admission, not silently dropped.
	big := make([]byte, 1024)
	c.addCopy(t1, 99, big)
	if got := c.Stats().AdmissionRejects; got == 0 {
		t.Fatalf("oversized insert should count as admission reject")
	}

	// Hammer one shard's budget: every insert beyond capacity either
	// evicts (counter grows) or is gated (reject counter grows).
	for i := 0; i < 1000; i++ {
		c.addCopy(t2, i, page)
	}
	st = c.Stats()
	if st.Evictions+st.AdmissionRejects < 900 {
		t.Fatalf("expected ~1000 evictions+rejects under pressure, got %d+%d",
			st.Evictions, st.AdmissionRejects)
	}

	// Counters() and Stats() read the same atomics.
	h, m, e, a := c.Counters()
	st = c.Stats()
	if h != st.Hits || m != st.Misses || e != st.Evictions || a != st.AdmissionRejects {
		t.Fatalf("Counters() = %d/%d/%d/%d, Stats = %+v", h, m, e, a, st)
	}

	// Monotonic under concurrency: sample repeatedly while another
	// goroutine churns the cache.
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 5000; i++ {
			c.addCopy(t3, i, page)
			c.get(t3, i)
		}
	}()
	var prev CacheStats
	for i := 0; i < 1000; i++ {
		cur := c.Stats()
		if cur.Hits < prev.Hits || cur.Misses < prev.Misses ||
			cur.Evictions < prev.Evictions || cur.AdmissionRejects < prev.AdmissionRejects {
			t.Fatalf("counters went backwards: %+v then %+v", prev, cur)
		}
		prev = cur
	}
	<-done
}

// TestCacheCountersAddUp holds the per-shard counters to the cursors'
// own tallies on a cache that thrashes (two pages a shard under a
// 238-page store). Every materialized page visit is exactly one hit or one
// miss; every miss is one physical fetch and ends in exactly one of: an
// admission reject, an insert, or a duplicate of an insert that won the
// race. Inserts are not counted as such, but nothing is purged while the
// store is open, so they are the evictions plus what is still resident —
// which also makes Evictions <= inserts an identity. A lone cursor races
// nobody, so there the books balance to zero; concurrent cursors may leave
// a few duplicates, never a deficit. Resident bytes never exceed the
// budget and no counter ever steps back, sampled while the cursors run.
func TestCacheCountersAddUp(t *testing.T) {
	side := uint32(64)
	o, _ := core.NewOnion2D(side)
	recs := buildRecords(t, o.Universe(), 5000, 13)
	path := tmpPath(t)
	if err := Write(path, o, recs, 512); err != nil {
		t.Fatal(err)
	}
	cache := NewCache(16 * 512)
	s, err := OpenCachedFS(vfs.OS{}, path, o, cache)
	if err != nil {
		t.Fatal(err)
	}

	// queries runs n seeded 12x12 rectangles on one cursor each and
	// returns the physical tallies of all of them.
	queries := func(seed int64, n int) (total IOStats, err error) {
		rng := rand.New(rand.NewSource(seed))
		for q := 0; q < n; q++ {
			lo := geom.Point{uint32(rng.Intn(int(side) - 12)), uint32(rng.Intn(int(side) - 12))}
			krs, err := ranges.Decompose(o, geom.Rect{Lo: lo, Hi: geom.Point{lo[0] + 11, lo[1] + 11}}, 0)
			if err != nil {
				return total, err
			}
			_, io, err := walkRanges(s, krs, nil)
			if err != nil {
				return total, err
			}
			total.Add(io)
		}
		return total, nil
	}
	// balance checks a snapshot against the cursors' sum and returns the
	// misses no reject and no insert accounts for: the racing duplicates.
	balance := func(st CacheStats, io IOStats) int {
		t.Helper()
		if st.Hits != uint64(io.CacheHits) || st.Misses != uint64(io.PagesFetched) {
			t.Fatalf("cache counted %d hits + %d misses, the cursors %d hits + %d fetches",
				st.Hits, st.Misses, io.CacheHits, io.PagesFetched)
		}
		if st.Bytes > st.Budget || st.Bytes != int64(st.Pages)*512 {
			t.Fatalf("resident set %d pages / %d bytes under a budget of %d", st.Pages, st.Bytes, st.Budget)
		}
		inserts := st.Evictions + uint64(st.Pages)
		return int(st.Misses) - int(st.AdmissionRejects) - int(inserts)
	}

	total, err := queries(1, 200)
	if err != nil {
		t.Fatal(err)
	}
	st := cache.Stats()
	if dups := balance(st, total); dups != 0 {
		t.Fatalf("a lone cursor left %d misses unaccounted for: %+v", dups, st)
	}
	if st.Hits == 0 || st.Evictions == 0 || st.AdmissionRejects == 0 {
		t.Fatalf("the cache is meant to thrash: %+v", st)
	}

	const workers = 6
	ios := make([]IOStats, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if ios[w], err = queries(int64(100+w), 150); err != nil {
				t.Error(err)
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	prev := st
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		cur := cache.Stats()
		if cur.Hits < prev.Hits || cur.Misses < prev.Misses ||
			cur.Evictions < prev.Evictions || cur.AdmissionRejects < prev.AdmissionRejects {
			t.Fatalf("counters went backwards: %+v then %+v", prev, cur)
		}
		if cur.Bytes > cur.Budget {
			t.Fatalf("resident bytes over budget: %+v", cur)
		}
		prev = cur
	}
	for _, io := range ios {
		total.Add(io)
	}
	st = cache.Stats()
	dups := balance(st, total)
	if dups < 0 {
		t.Fatalf("more rejects and inserts than misses, by %d: %+v", -dups, st)
	}
	t.Logf("%d racing duplicates in %d misses", dups, st.Misses)

	// Close purges the resident set and leaves the lifetime counters alone.
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	end := cache.Stats()
	if end.Pages != 0 || end.Bytes != 0 {
		t.Fatalf("pages survive close: %+v", end)
	}
	end.Pages, end.Bytes = st.Pages, st.Bytes
	if end != st {
		t.Fatalf("close moved the counters: %+v then %+v", st, end)
	}
}

// TestCacheHitsRaceEvictionAndPurge runs lock-free hits against the
// evictions and purges that clear table slots. Two stores share a cache
// of two pages a shard; cursors query both while another goroutine closes
// and reopens one of them, so every visit races inserts and evictions of
// both stores and the purge of one. Each query must return the records
// and logical Stats of the same query on a bare store; the counters never
// step back and the resident bytes never pass the budget. At quiescence
// the resident bytes are whole pages, a closed store leaves no slot
// behind, and the other store's resident pages survive its purge.
func TestCacheHitsRaceEvictionAndPurge(t *testing.T) {
	const side, pageBytes = 64, 512
	o, _ := core.NewOnion2D(side)
	paths := [2]string{tmpPath(t), tmpPath(t)}
	for i, p := range paths {
		if err := Write(p, o, buildRecords(t, o.Universe(), 5000, int64(31+i)), pageBytes); err != nil {
			t.Fatal(err)
		}
	}
	type answer struct {
		recs []Entry
		st   Stats
	}
	query := func(s *Store, krs []curve.KeyRange) (answer, error) {
		var a answer
		st, _, err := walkRanges(s, krs, func(_ curve.KeyRange, e *Entry) { a.recs = append(a.recs, *e) })
		a.st = st
		return a, err
	}
	equal := func(a, b answer) bool { return a.st == b.st && slices.Equal(a.recs, b.recs) }

	// The bare answers of 40 seeded 12x12 rectangles, for both stores.
	rng := rand.New(rand.NewSource(17))
	plans := make([][]curve.KeyRange, 40)
	var want [2][]answer
	for q := range plans {
		lo := geom.Point{uint32(rng.Intn(side - 12)), uint32(rng.Intn(side - 12))}
		krs, err := ranges.Decompose(o, geom.Rect{Lo: lo, Hi: geom.Point{lo[0] + 11, lo[1] + 11}}, 0)
		if err != nil {
			t.Fatal(err)
		}
		plans[q] = krs
	}
	for i, p := range paths {
		bare, err := Open(p, o)
		if err != nil {
			t.Fatal(err)
		}
		for _, krs := range plans {
			a, err := query(bare, krs)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = append(want[i], a)
		}
		bare.Close()
	}

	cache := NewCache(cacheShardCount * 2 * pageBytes)
	a, err := OpenCachedFS(vfs.OS{}, paths[0], o, cache)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	var bmu sync.RWMutex // readers share b; the reopener swaps it
	b, err := OpenCachedFS(vfs.OS{}, paths[1], o, cache)
	if err != nil {
		t.Fatal(err)
	}
	// leftover counts the slots a table still holds.
	leftover := func(tb *pageTable) int {
		n := 0
		for p := range tb.slots {
			if tb.slots[p].Load() != nil {
				n++
			}
		}
		return n
	}

	// The reopener closes and reopens B a fixed number of times; each
	// worker queries until it has, and at least once through the plans.
	const workers, reopens = 4, 50
	reopened := make(chan error, 1)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				if i >= len(plans) {
					select {
					case err := <-reopened:
						reopened <- err
						return
					default:
					}
				}
				q := (i*7 + w*13) % len(plans)
				got, err := query(a, plans[q])
				if err == nil && !equal(got, want[0][q]) {
					t.Errorf("worker %d: store A query %d: %d records %+v, want %d %+v",
						w, q, len(got.recs), got.st, len(want[0][q].recs), want[0][q].st)
					return
				}
				if err == nil {
					bmu.RLock()
					got, err = query(b, plans[q])
					bmu.RUnlock()
				}
				if err != nil {
					t.Error(err)
					return
				}
				if !equal(got, want[1][q]) {
					t.Errorf("worker %d: store B query %d: %d records %+v, want %d %+v",
						w, q, len(got.recs), got.st, len(want[1][q].recs), want[1][q].st)
					return
				}
			}
		}()
	}
	go func() {
		var err error
		defer func() { reopened <- err }()
		for n := 0; n < reopens; n++ {
			bmu.Lock()
			closed := b.table
			if err = b.Close(); err == nil {
				if n := leftover(closed); n != 0 {
					err = fmt.Errorf("a closed store left %d slots behind", n)
				} else {
					b, err = OpenCachedFS(vfs.OS{}, paths[1], o, cache)
				}
			}
			bmu.Unlock()
			if err != nil {
				return
			}
		}
	}()
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	var prev CacheStats
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		cur := cache.Stats()
		if cur.Hits < prev.Hits || cur.Misses < prev.Misses ||
			cur.Evictions < prev.Evictions || cur.AdmissionRejects < prev.AdmissionRejects {
			t.Fatalf("counters went backwards: %+v then %+v", prev, cur)
		}
		if cur.Bytes > cur.Budget {
			t.Fatalf("resident bytes over budget: %+v", cur)
		}
		prev = cur
	}
	if err := <-reopened; err != nil {
		t.Fatal(err)
	}

	st := cache.Stats()
	if st.Bytes != int64(st.Pages)*pageBytes || st.Hits == 0 || st.Evictions == 0 {
		t.Fatalf("at quiescence: %+v", st)
	}
	// Every resident page belongs to one of the two open stores.
	if n := leftover(a.table) + leftover(b.table); n != st.Pages {
		t.Fatalf("%d resident pages, the open stores' tables hold %d", st.Pages, n)
	}
	// Fill A's share of the cache, then close B: A's pages stay put.
	for _, krs := range plans {
		if _, err := query(a, krs); err != nil {
			t.Fatal(err)
		}
	}
	before := make(map[int]*cachePage)
	for p := range a.table.slots {
		if e := a.table.slots[p].Load(); e != nil {
			before[p] = e
		}
	}
	if len(before) == 0 {
		t.Fatal("store A has no resident page")
	}
	closed := b.table
	if err := b.Close(); err != nil {
		t.Fatal(err)
	}
	// An insert that a cursor still in flight offers after the purge is
	// dropped too.
	cache.addCopy(closed, 0, make([]byte, pageBytes))
	if n := leftover(closed); n != 0 {
		t.Fatalf("a closed store left %d slots behind", n)
	}
	for p, e := range before {
		if a.table.slots[p].Load() != e {
			t.Fatalf("closing store B dropped page %d of store A", p)
		}
	}
	if st := cache.Stats(); st.Pages != len(before) || st.Bytes != int64(len(before))*pageBytes {
		t.Fatalf("after closing B: %+v, want A's %d pages", st, len(before))
	}
}
