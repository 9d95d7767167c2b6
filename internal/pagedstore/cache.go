package pagedstore

import (
	"sync"
	"sync/atomic"
)

// Cache is a shared page cache: immutable page images keyed by (store,
// page number), bounded by a byte budget and evicted with a sharded clock
// (second-chance) policy. One Cache may back any number of Stores — the
// storage engine gives all its segments one cache, and a sharded engine
// can give one cache to every shard — so the budget is a process-level
// knob, not a per-file one.
//
// The cache holds references to immutable page buffers. A hit hands the
// caller the shared buffer without copying; eviction merely drops the
// cache's reference, so a cursor that still holds the page keeps reading
// it safely while the garbage collector reclaims it afterwards. All
// methods are safe for concurrent use.
//
// Every cached Store owns a page table: one atomic pointer a page, set
// while that page is resident. A hit is a load of the page's slot and an
// atomic bump of a hit counter, with no lock and no hash probe; a miss
// bumps a miss counter and returns whether the page the caller is about
// to read will be admitted, judged from the shard's byte count and tick,
// both atomics, so a miss the cache declines takes no lock either. Only
// admission and eviction (addCopy) and purge take a shard's lock, and
// they alone publish and clear table slots: the slot of page p is written
// only under the lock of p's shard. The counters are atomics, so
// Counters takes no lock and Stats locks a shard only to read its
// resident set.
//
// Caching is invisible to the logical access accounting: Stats keeps
// counting the seeks and pages the query plan pays (the paper's
// clustering number), whether the page bytes come from disk or from the
// cache. Only IOStats — the physical counters — change.
type Cache struct {
	shards []cacheShard
}

// CacheStats is a point-in-time snapshot of a Cache: a struct copy with
// no reset or delta semantics of its own. Hits, Misses, Evictions and
// AdmissionRejects are monotonic counters over the cache's lifetime —
// subtract two snapshots to get a rate — while Pages and Bytes describe
// the resident set at the moment of the call. The same counters are
// exported live through the engine's telemetry registry
// (cache_hits_total etc.), so a snapshot here and a registry scrape
// read the same per-shard words and cannot drift apart.
type CacheStats struct {
	Hits             uint64 // page requests served from memory
	Misses           uint64 // page requests that went to disk
	Evictions        uint64 // pages dropped to stay inside the budget
	AdmissionRejects uint64 // candidate inserts refused by the pressure gate
	Pages            int    // resident pages
	Bytes            int64  // resident bytes
	Budget           int64  // configured byte budget, as split over the shards (see NewCache)
}

// HitRate returns Hits / (Hits + Misses), or 0 before any request.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

const cacheShardCount = 8 // fixed power of two; shard = key hash & mask

// gateEvery is the pressure gate of admission: the one miss in this many
// (a power of two) that a full shard lets displace a resident page. Each
// insert costs a page-sized allocation, a copy and an eviction, and on
// traffic with no hot set it buys nothing — the page it evicts was worth
// as much — so the gate sets what a thrashing cache costs per miss. It was
// 8 until bench/ query-cold (a cache of a twelfth of the pages, near-uniform
// traffic) measured 8.0 evictions an op and a median 15-17 % above the same
// store with no cache at all; at 32 that is 2.0 evictions and 3-4 %, the
// hit ratio goes from 0.082 to 0.088, and 64 measured no better than 32
// while taking three times as long to absorb a change of hot set (CHANGES.md,
// PR 19, has the runs).
const gateEvery = 32

// pageTable is a cached store's view of the cache: slot p points at page
// p's resident entry, or is nil. Hits read it without a lock; only the
// lock of page p's shard publishes or clears slot p.
type pageTable struct {
	id     uint64 // process-unique identity: with the page number, picks the shard
	slots  []atomic.Pointer[cachePage]
	closed atomic.Bool // set by purge: addCopy admits no page of a closed store
}

// newPageTable returns the empty table of a store of the given pages.
func newPageTable(pages int) *pageTable {
	return &pageTable{id: storeIDs.Add(1), slots: make([]atomic.Pointer[cachePage], pages)}
}

// cachePage is one resident page. Its image, owner and place never change
// after admission, so a hit may keep the image after an eviction; only
// the second-chance bit moves, set by hits and cleared by the clock.
type cachePage struct {
	buf   []byte
	ref   atomic.Bool // second-chance bit
	sh    *cacheShard // the shard whose budget holds the page
	owner *pageTable
	page  int // index in owner.slots
	slot  int // index in sh.slots
}

type cacheShard struct {
	mu    sync.Mutex
	slots []*cachePage // clock ring; nil = dead slot
	free  []int        // dead slot indices
	hand  int          // clock hand over slots

	budget int64
	// bytes is the resident size and tick the admission counter while the
	// shard is full: written under mu, read by visit's verdict without it.
	bytes atomic.Int64
	tick  atomic.Uint64

	// Lifetime counters of the visits and inserts this shard served.
	hits, misses, evictions, admissionRejects atomic.Uint64
}

// storeIDs hands every page table a process-unique identity.
var storeIDs atomic.Uint64

// NewCache returns a page cache with the given byte budget, spread
// evenly over 8 internal shards so concurrent queries do not serialize on
// one lock. Each shard retains only pages that fit its eighth, so a
// budget under 8 pages effectively disables caching — every insert is an
// admission reject — while CacheStats.Budget still reports the bytes
// that were asked for.
func NewCache(budgetBytes int64) *Cache {
	c := &Cache{shards: make([]cacheShard, cacheShardCount)}
	per := budgetBytes / cacheShardCount
	for i := range c.shards {
		c.shards[i].budget = per
	}
	return c
}

// mix64 is the splitmix64 finalizer: a cheap, well-distributed hash for
// cache sharding.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

func (c *Cache) shardOf(t *pageTable, page int) *cacheShard {
	h := mix64(t.id ^ mix64(uint64(page)))
	return &c.shards[h&(cacheShardCount-1)]
}

// visit is one logical page visit, and takes no lock. A hit returns the
// shared page image and marks it recently used. A miss returns nil and
// the admission verdict for the size-byte page the caller is about to
// read: admit == true asks the caller to offer the verified page to
// addCopy, admit == false means the cache has already declined (and
// counted) it and there is nothing more to do.
//
// Admission is pressure-gated: once the shard is full, only every
// gateEvery-th miss may displace a resident page. A cache smaller than a
// scan's working set would otherwise recycle the entire miss traffic
// through insert + eviction for zero hits; gating keeps a thrashing cache
// cheap while still letting genuinely hot pages in — a hot page's
// repeated misses soon cross the gate. Pages larger than the shard budget
// are never admitted.
func (c *Cache) visit(t *pageTable, page, size int) (buf []byte, admit bool) {
	if e := t.slots[page].Load(); e != nil {
		if !e.ref.Load() {
			e.ref.Store(true)
		}
		e.sh.hits.Add(1)
		return e.buf, false
	}
	sh := c.shardOf(t, page)
	sh.misses.Add(1)
	need := int64(size)
	admit = need <= sh.budget
	if admit && sh.bytes.Load()+need > sh.budget {
		admit = sh.tick.Add(1)&(gateEvery-1) == 0
	}
	if !admit {
		sh.admissionRejects.Add(1)
	}
	return nil, admit
}

// addCopy admits a copy of the borrowed page image — one visit said it
// would take — evicting clock victims until the shard fits its budget. A
// racing duplicate insert keeps the resident copy, a page of a closed
// store is dropped, and a page larger than the shard budget is rejected.
// The copy is taken only when the page is actually admitted, so a skipped
// insert costs no allocation.
func (c *Cache) addCopy(t *pageTable, page int, buf []byte) {
	sh := c.shardOf(t, page)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if t.slots[page].Load() != nil || t.closed.Load() {
		return
	}
	need := int64(len(buf))
	if need > sh.budget {
		sh.admissionRejects.Add(1)
		return
	}
	for sh.bytes.Load()+need > sh.budget {
		if !sh.evictOne() {
			sh.admissionRejects.Add(1)
			return
		}
		sh.evictions.Add(1)
	}
	e := &cachePage{buf: make([]byte, len(buf)), sh: sh, owner: t, page: page}
	copy(e.buf, buf)
	e.ref.Store(true)
	if n := len(sh.free); n > 0 {
		e.slot = sh.free[n-1]
		sh.free = sh.free[:n-1]
		sh.slots[e.slot] = e
	} else {
		e.slot = len(sh.slots)
		sh.slots = append(sh.slots, e)
	}
	sh.bytes.Add(need)
	t.slots[page].Store(e)
}

// evictOne advances the clock to the first page without a second chance
// and drops it. It reports whether anything was evicted.
func (sh *cacheShard) evictOne() bool {
	// Two sweeps bound the scan: the first clears every ref bit, the
	// second must find a victim (unless the shard is empty).
	for scanned := 0; scanned < 2*len(sh.slots); scanned++ {
		i := sh.hand
		sh.hand = (sh.hand + 1) % len(sh.slots)
		e := sh.slots[i]
		if e == nil {
			continue
		}
		if e.ref.Load() {
			e.ref.Store(false)
			continue
		}
		sh.drop(e)
		return true
	}
	return false
}

// drop (sh.mu held) removes a resident page from the shard and its
// owner's table.
func (sh *cacheShard) drop(e *cachePage) {
	e.owner.slots[e.page].Store(nil)
	sh.slots[e.slot] = nil
	sh.free = append(sh.free, e.slot)
	sh.bytes.Add(-int64(len(e.buf)))
}

// purge drops every resident page of the given store; Store.Close calls
// it so a closed (or compacted-away) segment stops occupying budget. It
// walks the store's own table, so it costs O(pages of the store), and it
// first marks the table closed, so an insert that races it cannot leave
// a page behind.
func (c *Cache) purge(t *pageTable) {
	t.closed.Store(true)
	for p := range t.slots {
		if t.slots[p].Load() == nil {
			continue
		}
		sh := c.shardOf(t, p)
		sh.mu.Lock()
		if e := t.slots[p].Load(); e != nil {
			sh.drop(e)
		}
		sh.mu.Unlock()
	}
}

// Stats sums the shards: their lifetime counters and their resident sets.
// A shard's lock is held only to read its resident pages and bytes
// together, and the shards are read one after the other, so the sum is
// not one instant across shards — but every counter only grows, so
// neither does any sum of them between two calls.
func (c *Cache) Stats() CacheStats {
	var st CacheStats
	st.Hits, st.Misses, st.Evictions, st.AdmissionRejects = c.Counters()
	for i := range c.shards {
		sh := &c.shards[i]
		st.Budget += sh.budget
		sh.mu.Lock()
		st.Bytes += sh.bytes.Load()
		st.Pages += len(sh.slots) - len(sh.free)
		sh.mu.Unlock()
	}
	return st
}

// Counters returns the monotonic lifetime counters of Stats alone — what
// telemetry samples on every scrape. It takes no lock.
func (c *Cache) Counters() (hits, misses, evictions, admissionRejects uint64) {
	for i := range c.shards {
		sh := &c.shards[i]
		hits += sh.hits.Load()
		misses += sh.misses.Load()
		evictions += sh.evictions.Load()
		admissionRejects += sh.admissionRejects.Load()
	}
	return hits, misses, evictions, admissionRejects
}
