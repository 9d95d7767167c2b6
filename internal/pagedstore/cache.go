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
// A page visit costs one hold of one shard's lock: a hit returns the
// image, and a miss returns — from the same critical section that counted
// it — whether the page the caller is about to read will be admitted, so
// a miss the cache declines never comes back for a second lock. The
// lifetime counters live in the shards, under that same lock, and are
// summed on demand.
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

type cacheKey struct {
	store uint64
	page  int
}

type cacheSlot struct {
	key  cacheKey
	buf  []byte
	ref  bool // second-chance bit
	live bool
}

type cacheShard struct {
	mu     sync.Mutex
	index  map[cacheKey]int // key -> slot
	slots  []cacheSlot
	free   []int // dead slot indices
	hand   int   // clock hand over slots
	bytes  int64
	budget int64
	tick   uint64 // admission counter while the shard is full

	// Lifetime counters of the visits and inserts this shard served,
	// guarded by mu like the rest: a visit bumps them inside the critical
	// section it already holds, on the shard's own cache lines.
	hits, misses, evictions, admissionRejects uint64
}

// storeIDs hands every opened Store a process-unique cache identity.
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
		c.shards[i].index = make(map[cacheKey]int)
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

func (c *Cache) shardOf(k cacheKey) *cacheShard {
	h := mix64(k.store ^ mix64(uint64(k.page)))
	return &c.shards[h&(cacheShardCount-1)]
}

// visit is one logical page visit, under a single hold of the shard lock.
// A hit returns the shared page image and marks it recently used. A miss
// returns nil and the admission verdict for the size-byte page the caller
// is about to read: admit == true asks the caller to offer the verified
// page to addCopy, admit == false means the cache has already declined
// (and counted) it and there is nothing more to do.
//
// Admission is pressure-gated: once the shard is full, only every
// gateEvery-th miss may displace a resident page. A cache smaller than a
// scan's working set would otherwise recycle the entire miss traffic
// through insert + eviction for zero hits; gating keeps a thrashing cache
// cheap while still letting genuinely hot pages in — a hot page's
// repeated misses soon cross the gate. Pages larger than the shard budget
// are never admitted.
func (c *Cache) visit(store uint64, page, size int) (buf []byte, admit bool) {
	k := cacheKey{store: store, page: page}
	sh := c.shardOf(k)
	sh.mu.Lock()
	if i, ok := sh.index[k]; ok {
		sh.slots[i].ref = true
		buf = sh.slots[i].buf
		sh.hits++
		sh.mu.Unlock()
		return buf, false
	}
	sh.misses++
	need := int64(size)
	admit = need <= sh.budget
	if admit && sh.bytes+need > sh.budget {
		sh.tick++
		admit = sh.tick&(gateEvery-1) == 0
	}
	if !admit {
		sh.admissionRejects++
	}
	sh.mu.Unlock()
	return nil, admit
}

// addCopy admits a copy of the borrowed page image — one visit said it
// would take — evicting clock victims until the shard fits its budget. A
// racing duplicate insert keeps the resident copy; a page larger than the
// shard budget is rejected. The copy is taken only when the page is
// actually admitted, so a skipped insert costs no allocation.
func (c *Cache) addCopy(store uint64, page int, buf []byte) {
	k := cacheKey{store: store, page: page}
	sh := c.shardOf(k)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.index[k]; ok {
		return
	}
	need := int64(len(buf))
	if need > sh.budget {
		sh.admissionRejects++
		return
	}
	for sh.bytes+need > sh.budget {
		if !sh.evictOne() {
			sh.admissionRejects++
			return
		}
		sh.evictions++
	}
	cp := make([]byte, len(buf))
	copy(cp, buf)
	slot := -1
	if n := len(sh.free); n > 0 {
		slot = sh.free[n-1]
		sh.free = sh.free[:n-1]
	} else {
		sh.slots = append(sh.slots, cacheSlot{})
		slot = len(sh.slots) - 1
	}
	sh.slots[slot] = cacheSlot{key: k, buf: cp, ref: true, live: true}
	sh.index[k] = slot
	sh.bytes += need
}

// evictOne advances the clock to the first slot without a second chance
// and drops it. It reports whether anything was evicted.
func (sh *cacheShard) evictOne() bool {
	// Two sweeps bound the scan: the first clears every ref bit, the
	// second must find a victim (unless the shard is empty).
	for scanned := 0; scanned < 2*len(sh.slots); scanned++ {
		if len(sh.slots) == 0 {
			return false
		}
		i := sh.hand
		sh.hand = (sh.hand + 1) % len(sh.slots)
		s := &sh.slots[i]
		if !s.live {
			continue
		}
		if s.ref {
			s.ref = false
			continue
		}
		sh.bytes -= int64(len(s.buf))
		delete(sh.index, s.key)
		*s = cacheSlot{}
		sh.free = append(sh.free, i)
		return true
	}
	return false
}

// purge drops every resident page of the given store; Store.Close calls
// it so a closed (or compacted-away) segment stops occupying budget.
// The scan is O(resident pages) across all shards — fine on the
// flush/compaction cadence that retires segments; if profiles ever show
// it, a per-store slot list would make it O(pages of this store).
func (c *Cache) purge(store uint64) {
	for si := range c.shards {
		sh := &c.shards[si]
		sh.mu.Lock()
		for k, i := range sh.index {
			if k.store != store {
				continue
			}
			sh.bytes -= int64(len(sh.slots[i].buf))
			sh.slots[i] = cacheSlot{}
			sh.free = append(sh.free, i)
			delete(sh.index, k)
		}
		sh.mu.Unlock()
	}
}

// Stats sums the shards: their lifetime counters and their resident sets.
// Each shard is read under its own lock, one after the other, so the sum
// is not one instant across shards — but every shard's counters only
// grow, so neither does any sum of them between two calls.
func (c *Cache) Stats() CacheStats {
	var st CacheStats
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		st.Hits += sh.hits
		st.Misses += sh.misses
		st.Evictions += sh.evictions
		st.AdmissionRejects += sh.admissionRejects
		st.Budget += sh.budget
		st.Bytes += sh.bytes
		st.Pages += len(sh.index)
		sh.mu.Unlock()
	}
	return st
}

// Counters returns the monotonic lifetime counters of Stats alone — what
// telemetry samples on every scrape.
func (c *Cache) Counters() (hits, misses, evictions, admissionRejects uint64) {
	st := c.Stats()
	return st.Hits, st.Misses, st.Evictions, st.AdmissionRejects
}
