package engine

import (
	"math/rand"
	"sync"
	"sync/atomic"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/pagedstore"
)

const maxSkipLevel = 16

// version is one write to a cell: a payload or a tombstone, stamped with
// the engine-wide sequence number that orders it.
type version struct {
	seq     uint64
	payload uint64
	del     bool
}

// memNode is a skiplist node holding every version of one curve key.
// Nodes are never removed and version slices only grow, so readers that
// hold a node may drop and retake the memtable lock between steps.
type memNode struct {
	key  uint64
	pt   geom.Point
	vers []version // ascending seq
	next []*memNode
}

// memtable is the mutable, curve-key-ordered write buffer: one skiplist.
// It has one writer, which inserts in sequence order: PutBatch under the
// WAL mutex, or a WAL replay before the table is shared. Readers take mu
// as RLock for O(1) windows per step — snapshot consistency comes from
// sequence filtering, not from holding the lock across a scan.
type memtable struct {
	mu      sync.RWMutex
	head    *memNode
	rng     *rand.Rand
	gen     uint64       // file generation of the WAL backing this table
	entries atomic.Int64 // total versions ever inserted
}

func newMemtable(gen uint64) *memtable {
	return &memtable{
		head: &memNode{next: make([]*memNode, maxSkipLevel)},
		rng:  rand.New(rand.NewSource(int64(gen)<<16 + 1)),
		gen:  gen,
	}
}

// put inserts one version, whose seq must exceed every seq already in
// the table. pt is cloned; callers may reuse it.
func (m *memtable) put(key uint64, pt geom.Point, payload uint64, seq uint64, del bool) {
	m.mu.Lock()
	var prev [maxSkipLevel]*memNode
	n := m.head
	for lvl := maxSkipLevel - 1; lvl >= 0; lvl-- {
		for n.next[lvl] != nil && n.next[lvl].key < key {
			n = n.next[lvl]
		}
		prev[lvl] = n
	}
	if tgt := n.next[0]; tgt != nil && tgt.key == key {
		tgt.vers = append(tgt.vers, version{seq: seq, payload: payload, del: del})
	} else {
		h := 1
		for h < maxSkipLevel && m.rng.Intn(2) == 0 {
			h++
		}
		nn := &memNode{
			key:  key,
			pt:   pt.Clone(),
			vers: []version{{seq: seq, payload: payload, del: del}},
			next: make([]*memNode, h),
		}
		for lvl := 0; lvl < h; lvl++ {
			nn.next[lvl] = prev[lvl].next[lvl]
			prev[lvl].next[lvl] = nn
		}
	}
	m.mu.Unlock()
	m.entries.Add(1)
}

// resolve returns the newest version visible at snapshot snap. Versions
// are appended in ascending seq order (under the memtable's exclusive
// lock, while every reader holds at least the read lock), so scan from
// the tail.
func resolve(vers []version, snap uint64) (version, bool) {
	for i := len(vers) - 1; i >= 0; i-- {
		if vers[i].seq <= snap {
			return vers[i], true
		}
	}
	return version{}, false
}

// entry surfaces one resolved version of a memtable node as the stored
// tuple the merge, the flush and the segment writer all work on; the mark
// is the tombstone. Its Point aliases the node's, which never changes once
// the node is linked: nothing downstream may write through it.
func (n *memNode) entry(v version) pagedstore.Entry {
	return pagedstore.Entry{Key: n.key, Point: n.pt, Payload: v.payload, Marked: v.del}
}

// memIter streams the resolved entries of one key range in ascending key
// order at a fixed snapshot. The memtable lock is held only inside
// advance().
type memIter struct {
	m      *memtable
	snap   uint64
	lo, hi uint64
	cur    *memNode // last visited node, nil = before first
	head   pagedstore.Entry
	ok     bool
}

// init (re)positions an existing iterator over [lo, hi] at snapshot snap
// and loads its first entry — the reusable form the pooled query state
// drives, one reset per (range, memtable) pass with no allocation.
func (it *memIter) init(m *memtable, kr curve.KeyRange, snap uint64) {
	*it = memIter{m: m, snap: snap, lo: kr.Lo, hi: kr.Hi}
	it.advance()
}

// peek returns the iterator's current entry.
func (it *memIter) peek() (pagedstore.Entry, bool) { return it.head, it.ok }

// advance loads the next visible entry with key in [lo, hi].
func (it *memIter) advance() {
	it.ok = false
	m := it.m
	m.mu.RLock()
	n := it.cur
	if n == nil {
		// First entry: skiplist search for lo.
		n = m.head
		for lvl := maxSkipLevel - 1; lvl >= 0; lvl-- {
			for n.next[lvl] != nil && n.next[lvl].key < it.lo {
				n = n.next[lvl]
			}
		}
	}
	for {
		n = n.next[0]
		if n == nil || n.key > it.hi {
			break
		}
		it.cur = n
		if v, ok := resolve(n.vers, it.snap); ok {
			it.head = n.entry(v)
			it.ok = true
			break
		}
	}
	m.mu.RUnlock()
}

// flushEntries returns every key's newest version in ascending key order —
// the sorted run a flush writes out. Tombstones are included (they must
// shadow older segments until compaction drops them at the bottom level).
// The memtable must be frozen (no concurrent writers) when this runs.
func (m *memtable) flushEntries() []pagedstore.Entry {
	var out []pagedstore.Entry
	for n := m.head.next[0]; n != nil; n = n.next[0] {
		out = append(out, n.entry(n.vers[len(n.vers)-1]))
	}
	return out
}
