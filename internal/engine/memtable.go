package engine

import (
	"math/bits"
	"math/rand/v2"
	"sync"
	"sync/atomic"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/pagedstore"
)

const maxSkipLevel = 16

// A memtable node is one version — a payload or a tombstone — laid out in
// the arena at a word offset:
//
//	word 0   key
//	word 1   seq<<1 | del
//	word 2   payload
//	word 3…  the tower: ceil(h/2) words of 32-bit halves, half l the word
//	         offset of the node's successor on level l (0 = none: offset
//	         0 is the head, never a successor)
//
// The height h is not stored: a search reaches a node on level l only
// through a level-l link. A node is 4 words at heights 1 and 2, about 4.3
// on average.
const (
	nodeSeq     = 1
	nodePayload = 2
	nodeTower   = 3
)

// memtable is the mutable write buffer: a skiplist of versions, by curve
// key ascending then seq descending (a key's newest version first), in one
// pointer-free arena the garbage collector never traces. It has one
// writer, inserting in sequence order (PutBatch under the WAL mutex, or a
// WAL replay before the table is shared), which holds mu per insert: the
// arena grows by append, and offsets survive that. Readers take mu as
// RLock for O(1) windows per step — snapshot consistency comes from
// sequence filtering, not from holding the lock across a scan.
//
// occ is the key-occupancy bitmap, one bit per bucket of 2^shift
// consecutive keys, set by put before the key is linked: a range whose
// buckets are all clear holds no version, and a query skips the table
// for it without a descent (mayHold).
type memtable struct {
	mu      sync.RWMutex
	arena   []uint64
	gen     uint64       // file generation of the WAL backing this table
	entries atomic.Int64 // total versions ever inserted
	occ     []atomic.Uint64
	shift   uint
}

// maxOccBits caps the occupancy bitmap at 2^20 bits, so a memtable costs
// at most 128 KiB more whatever the key space: under a tenth of the
// ~2 MiB arena a memtable fills by the default flush threshold. At that
// size a bucket of a 4096² curve holds 16 keys, few enough that a query
// range holding none of the table's keys mostly misses its buckets too.
const maxOccBits = 1 << 20

// newMemtable returns an empty memtable for the WAL of generation gen
// over a key space of size keys.
func newMemtable(gen, size uint64) *memtable {
	shift := uint(max(bits.Len64(size-1)-bits.Len64(maxOccBits-1), 0))
	return &memtable{
		arena: make([]uint64, nodeTower+maxSkipLevel/2, 1<<10),
		gen:   gen,
		occ:   make([]atomic.Uint64, (size-1)>>shift/64+1),
		shift: shift,
	}
}

// mayHold reports whether any bucket overlapping kr has its bit set. A
// false answer proves the table holds no version in kr; the scan stops
// at the first non-zero word.
func (m *memtable) mayHold(kr curve.KeyRange) bool {
	lo, hi := kr.Lo>>m.shift, kr.Hi>>m.shift
	mask := ^uint64(0) << (lo % 64)
	for w := lo / 64; w < hi/64; w++ {
		if m.occ[w].Load()&mask != 0 {
			return true
		}
		mask = ^uint64(0)
	}
	return m.occ[hi/64].Load()&mask&(^uint64(0)>>(63-hi%64)) != 0
}

// next returns the offset of node n's successor on level lvl.
func next(a []uint64, n uint32, lvl int) uint32 {
	h := 2*(int(n)+nodeTower) + lvl
	return uint32(a[h>>1] >> (32 * (h & 1)))
}

func setNext(a []uint64, n uint32, lvl int, to uint32) {
	h := 2*(int(n)+nodeTower) + lvl
	sh := 32 * (h & 1)
	a[h>>1] = a[h>>1]&^(0xffffffff<<sh) | uint64(to)<<sh
}

// descend fills prev with, on every level, the last node whose key is
// below key (the head when there is none). Callers hold mu.
func (m *memtable) descend(key uint64, prev *[maxSkipLevel]uint32) {
	a := m.arena
	n := uint32(0)
	for lvl := maxSkipLevel - 1; lvl >= 0; lvl-- {
		for nx := next(a, n, lvl); nx != 0 && a[nx] < key; nx = next(a, n, lvl) {
			n = nx
		}
		prev[lvl] = n
	}
}

// put inserts one version, whose seq must exceed every seq already in
// the table: it links in front of the key's older versions. The key's
// occupancy bit is set first, so it is set before the batch holding the
// version is published.
func (m *memtable) put(key, payload, seq uint64, del bool) {
	b := key >> m.shift
	m.occ[b/64].Or(1 << (b % 64))
	h := min(1+bits.TrailingZeros64(rand.Uint64()), maxSkipLevel)
	var d uint64
	if del {
		d = 1
	}
	m.mu.Lock()
	var prev [maxSkipLevel]uint32
	m.descend(key, &prev)
	n := len(m.arena)
	if n > 1<<32-8 {
		panic("engine: memtable arena exceeds 32-bit offsets")
	}
	m.arena = append(m.arena, key, seq<<1|d, payload)
	for w := (h + 1) / 2; w > 0; w-- {
		m.arena = append(m.arena, 0)
	}
	for lvl := 0; lvl < h; lvl++ {
		setNext(m.arena, uint32(n), lvl, next(m.arena, prev[lvl], lvl))
		setNext(m.arena, prev[lvl], lvl, uint32(n))
	}
	m.mu.Unlock()
	m.entries.Add(1)
}

// memIter streams the resolved entries of one key range in ascending key
// order at a fixed snapshot: for each key, its newest version with seq <=
// snap. The memtable lock is held only inside init and next.
type memIter struct {
	m      *memtable
	snap   uint64
	lo, hi uint64 // lo rises past each key returned, skipping its older versions
	cur    uint32 // last visited node
}

// init (re)positions an existing iterator over [lo, hi] at snapshot snap
// — the reusable form the pooled query state drives, one reset per
// (range, memtable) pass with no allocation.
func (it *memIter) init(m *memtable, kr curve.KeyRange, snap uint64) {
	var prev [maxSkipLevel]uint32
	m.mu.RLock()
	m.descend(kr.Lo, &prev)
	m.mu.RUnlock()
	*it = memIter{m: m, snap: snap, lo: kr.Lo, hi: kr.Hi, cur: prev[0]}
}

// next decodes the next visible entry of the range into e and reports
// whether there was one.
func (it *memIter) next(e *pagedstore.Entry) bool {
	it.m.mu.RLock()
	a := it.m.arena
	for n := next(a, it.cur, 0); n != 0 && a[n] <= it.hi; n = next(a, n, 0) {
		it.cur = n
		if a[n] < it.lo || a[n+nodeSeq]>>1 > it.snap {
			continue
		}
		e.Key, e.Payload, e.Marked = a[n], a[n+nodePayload], a[n+nodeSeq]&1 != 0
		it.m.mu.RUnlock()
		it.lo = e.Key + 1
		return true
	}
	it.m.mu.RUnlock()
	return false
}

// flushEntries returns every key's newest version in ascending key order
// — the sorted run a flush writes out. Tombstones are included (they must shadow older
// segments until compaction drops them at the bottom level). The
// memtable must be frozen (no concurrent writers) when this runs.
func (m *memtable) flushEntries() []pagedstore.Entry {
	a := m.arena
	out := make([]pagedstore.Entry, 0, m.entries.Load())
	for n := next(a, 0, 0); n != 0; n = next(a, n, 0) {
		if len(out) > 0 && out[len(out)-1].Key == a[n] {
			continue
		}
		out = append(out, pagedstore.Entry{Key: a[n], Payload: a[n+nodePayload], Marked: a[n+nodeSeq]&1 != 0})
	}
	return out
}
