package engine

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/pagedstore"
)

// memOracle is the memtable's model: every version of every key, in
// ascending seq order.
type memOracle map[uint64][]memVer

type memVer struct {
	seq, payload uint64
	del          bool
}

// put inserts one version into both m and the oracle.
func (o memOracle) put(m *memtable, key, payload, seq uint64, del bool) {
	m.put(key, payload, seq, del)
	o[key] = append(o[key], memVer{seq: seq, payload: payload, del: del})
}

// want returns, in ascending key order, each key in [lo, hi] with its
// newest version at snapshot snap, tombstones included.
func (o memOracle) want(lo, hi, snap uint64) []pagedstore.Entry {
	var out []pagedstore.Entry
	for k, vs := range o {
		if k < lo || k > hi {
			continue
		}
		for i := len(vs) - 1; i >= 0; i-- {
			if vs[i].seq <= snap {
				out = append(out, pagedstore.Entry{Key: k, Payload: vs[i].payload, Marked: vs[i].del})
				break
			}
		}
	}
	slices.SortFunc(out, func(a, b pagedstore.Entry) int { return cmp.Compare(a.Key, b.Key) })
	return out
}

// scanMem drains a memIter over [lo, hi] at snap. It may run off the
// test goroutine.
func scanMem(m *memtable, lo, hi, snap uint64) []pagedstore.Entry {
	var it memIter
	it.init(m, curve.KeyRange{Lo: lo, Hi: hi}, snap)
	var out []pagedstore.Entry
	var e pagedstore.Entry
	for it.next(&e) {
		out = append(out, e)
	}
	return out
}

// checkMemtable compares a range scan at snap against the oracle.
func checkMemtable(t *testing.T, c curve.Curve, m *memtable, o memOracle, lo, hi, snap uint64) {
	t.Helper()
	if got, want := scanMem(m, lo, hi, snap), o.want(lo, hi, snap); !slices.Equal(got, want) {
		t.Fatalf("[%d,%d] at snap %d:\n got %v\nwant %v", lo, hi, snap, got, want)
	}
}

// checkFlush compares flushEntries — each key's newest version,
// tombstones kept — against the oracle.
func checkFlush(t *testing.T, m *memtable, o memOracle) {
	t.Helper()
	if got, want := m.flushEntries(), o.want(0, math.MaxUint64, math.MaxUint64); !slices.Equal(got, want) {
		t.Fatalf("flushEntries:\n got %v\nwant %v", got, want)
	}
}

// TestMemtableSnapshotFilter: each version of a key is its own node,
// newest first, and a snapshot sees the newest version at or below it.
func TestMemtableSnapshotFilter(t *testing.T) {
	c, _ := core.NewOnion2D(16)
	m := newMemtable(1)
	key := c.Index(geom.Point{3, 3})
	m.put(key, 10, 1, false)
	m.put(key, 20, 3, false)
	m.put(key, 0, 5, true)
	var seqs []uint64
	for n := next(m.arena, 0, 0); n != 0; n = next(m.arena, n, 0) {
		if m.arena[n] != key {
			t.Fatalf("node %d: key %d", n, m.arena[n])
		}
		seqs = append(seqs, m.arena[n+nodeSeq]>>1)
	}
	if !slices.Equal(seqs, []uint64{5, 3, 1}) {
		t.Fatalf("version nodes by seq %v, want newest first", seqs)
	}
	full := curve.KeyRange{Lo: 0, Hi: c.Universe().Size() - 1}
	for _, tc := range []struct {
		snap uint64
		want int64 // -1 = invisible, -2 = tombstone
	}{{0, -1}, {1, 10}, {2, 10}, {3, 20}, {4, 20}, {5, -2}, {99, -2}} {
		var it memIter
		it.init(m, full, tc.snap)
		var ent pagedstore.Entry
		ok := it.next(&ent)
		switch tc.want {
		case -1:
			if ok {
				t.Fatalf("snap %d: entry visible", tc.snap)
			}
		case -2:
			if !ok || !ent.Marked {
				t.Fatalf("snap %d: want tombstone, got %+v ok=%v", tc.snap, ent, ok)
			}
		default:
			if !ok || ent.Marked || ent.Payload != uint64(tc.want) {
				t.Fatalf("snap %d: got %+v ok=%v, want payload %d", tc.snap, ent, ok, tc.want)
			}
		}
		if ok && it.next(&ent) {
			t.Fatalf("snap %d: older version %+v surfaced", tc.snap, ent)
		}
	}
}

// TestMemtableModel drives colliding puts and deletes into one memtable
// and checks range scans at many snapshots, and the flush run, against
// the oracle.
func TestMemtableModel(t *testing.T) {
	c, _ := core.NewOnion2D(16)
	size := c.Universe().Size()
	rng := rand.New(rand.NewSource(7))
	m, o := newMemtable(3), memOracle{}
	for seq := uint64(1); seq <= 3000; seq++ {
		key := uint64(rng.Intn(40)) * 6 // 40 keys, each rewritten ~75 times
		o.put(m, key, uint64(rng.Int63()), seq, rng.Intn(4) == 0)
		if seq%100 != 0 {
			continue
		}
		for q := 0; q < 10; q++ {
			lo := uint64(rng.Int63n(int64(size)))
			hi := min(lo+uint64(rng.Int63n(80)), size-1)
			checkMemtable(t, c, m, o, lo, hi, uint64(rng.Int63n(int64(seq)+1)))
		}
		checkMemtable(t, c, m, o, 0, size-1, seq)
	}
	if got := m.entries.Load(); got != 3000 {
		t.Fatalf("entries %d, want 3000", got)
	}
	checkFlush(t, m, o)
}

// TestMemtableReadersDuringGrowth runs range readers against the one
// writer while its inserts grow (and so reallocate) the arena many times.
// Every scan at a published snapshot must be exact. Under -race this is
// the memtable's concurrency test.
func TestMemtableReadersDuringGrowth(t *testing.T) {
	c, _ := core.NewOnion2D(32)
	size := c.Universe().Size()
	const puts = 20000
	keyOf := make([]uint64, puts+1) // op seq's key; its payload is seq
	rng := rand.New(rand.NewSource(11))
	for s := 1; s <= puts; s++ {
		keyOf[s] = uint64(rng.Int63n(int64(size)))
	}
	m := newMemtable(1)
	var visible atomic.Uint64
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			for i := 0; i < 50 || visible.Load() < puts; i++ {
				snap := visible.Load()
				lo := uint64(rng.Int63n(int64(size)))
				hi := min(lo+uint64(rng.Int63n(200)), size-1)
				newest := make(map[uint64]uint64)
				for s := uint64(1); s <= snap; s++ {
					if k := keyOf[s]; k >= lo && k <= hi {
						newest[k] = s
					}
				}
				got := scanMem(m, lo, hi, snap)
				if len(got) != len(newest) {
					t.Errorf("[%d,%d] at snap %d: %d entries, want %d", lo, hi, snap, len(got), len(newest))
					return
				}
				for _, e := range got {
					if newest[e.Key] != e.Payload {
						t.Errorf("[%d,%d] at snap %d: key %d payload %d, want %d", lo, hi, snap, e.Key, e.Payload, newest[e.Key])
						return
					}
				}
			}
		}()
	}
	for s := uint64(1); s <= puts; s++ {
		m.put(keyOf[s], s, s, false)
		visible.Store(s)
	}
	wg.Wait()
}

// TestMemtablePutZeroAlloc pins the insert: a put into an arena with
// room allocates nothing.
func TestMemtablePutZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	m := newMemtable(1)
	m.arena = slices.Grow(m.arena, 1<<16)
	words := cap(m.arena)
	var seq uint64
	allocs := testing.AllocsPerRun(1000, func() {
		seq++
		m.put(seq*7919%4096, seq, seq, seq%5 == 0)
	})
	if cap(m.arena) != words {
		t.Fatalf("arena grew from %d to %d words", words, cap(m.arena))
	}
	if allocs != 0 {
		t.Fatalf("put allocates %.1f objects, want 0", allocs)
	}
}

// FuzzMemtable runs a fuzzed stream of puts, deletes and snapshot range
// scans against the oracle, then checks the flush run.
func FuzzMemtable(f *testing.F) {
	f.Add([]byte{5, 1, 0, 5, 4, 2, 0, 255, 3, 5, 9, 0, 5, 5, 0x21})
	f.Add([]byte{0, 0, 0, 255, 255, 0, 0, 255, 0xff})
	f.Fuzz(func(t *testing.T, raw []byte) {
		c, _ := core.NewOnion2D(16) // keys are one byte
		m, o := newMemtable(1), memOracle{}
		var seq uint64
		for i := 0; i+2 < len(raw); i += 3 {
			a, b, op := uint64(raw[i]), uint64(raw[i+1]), raw[i+2]
			if op&1 == 0 {
				seq++
				o.put(m, a, b, seq, b%4 == 0)
				continue
			}
			// A scan of [min(a,b), max(a,b)] at a snapshot op picks.
			snap := uint64(op>>1) % (seq + 1)
			if op == 0xff {
				snap = seq
			}
			checkMemtable(t, c, m, o, min(a, b), max(a, b), snap)
		}
		checkFlush(t, m, o)
	})
}
