package engine

import (
	"cmp"
	"math"
	"math/rand"
	"slices"
	"strconv"
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

// occupied reports whether some key of the oracle lies in a bucket of
// [lo, hi] under the given bucket shift: the answer mayHold must give.
func (o memOracle) occupied(lo, hi uint64, shift uint) bool {
	for k := range o {
		if k>>shift >= lo>>shift && k>>shift <= hi>>shift {
			return true
		}
	}
	return false
}

// scanMem drains a memIter over [lo, hi] at snap, through the occupancy
// filter as a query does: a range the filter rules out reads as empty.
// It may run off the test goroutine.
func scanMem(m *memtable, lo, hi, snap uint64) []pagedstore.Entry {
	kr := curve.KeyRange{Lo: lo, Hi: hi}
	if !m.mayHold(kr) {
		return nil
	}
	var it memIter
	it.init(m, kr, snap)
	var out []pagedstore.Entry
	var e pagedstore.Entry
	for it.next(&e) {
		out = append(out, e)
	}
	return out
}

// checkMemtable compares a range scan at snap against the oracle, and
// the occupancy filter's answer for the range against the buckets the
// oracle's keys fill.
func checkMemtable(t *testing.T, m *memtable, o memOracle, lo, hi, snap uint64) {
	t.Helper()
	if got, want := scanMem(m, lo, hi, snap), o.want(lo, hi, snap); !slices.Equal(got, want) {
		t.Fatalf("[%d,%d] at snap %d:\n got %v\nwant %v", lo, hi, snap, got, want)
	}
	if got, want := m.mayHold(curve.KeyRange{Lo: lo, Hi: hi}), o.occupied(lo, hi, m.shift); got != want {
		t.Fatalf("[%d,%d]: mayHold %v, want %v (bucket shift %d)", lo, hi, got, want, m.shift)
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
	m := newMemtable(1, c.Universe().Size())
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
// the oracle. It runs at key spaces on either side of the occupancy
// bitmap's word and cap — one key a bit up to 2^20 keys, two at 2^20+1,
// 2^20 at 2^40 — with keys at the ends of the key space and beside
// bucket and word boundaries, and ranges that start and end on them.
func TestMemtableModel(t *testing.T) {
	for _, size := range []uint64{1, 2, 63, 64, 65, 1 << 20, 1<<20 + 1, 1 << 40} {
		t.Run(strconv.FormatUint(size, 10), func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			m, o := newMemtable(3, size), memOracle{}
			bucket, word := uint64(1)<<m.shift, uint64(64)<<m.shift
			keys := []uint64{0, size - 1}
			for _, b := range []uint64{bucket, word, 2 * word, size / 2 &^ (word - 1)} {
				keys = append(keys, b-1, b, b+1)
			}
			for len(keys) < 40 { // 40 keys, each rewritten ~75 times
				keys = append(keys, uint64(rng.Int63n(int64(size))))
			}
			// edges are the keys, their neighbours and the first and last
			// keys of their buckets and words: the bounds of the ranges.
			var edges []uint64
			for i, k := range keys {
				keys[i] = min(k, size-1)
				k = keys[i]
				edges = append(edges, k, k+1, k&^(bucket-1), k|(bucket-1), k&^(word-1), k|(word-1))
				if k > 0 {
					edges = append(edges, k-1)
				}
			}
			for i := range edges {
				edges[i] = min(edges[i], size-1)
			}
			for seq := uint64(1); seq <= 3000; seq++ {
				o.put(m, keys[rng.Intn(len(keys))], uint64(rng.Int63()), seq, rng.Intn(4) == 0)
				if seq%100 != 0 {
					continue
				}
				for q := 0; q < 10; q++ {
					lo := uint64(rng.Int63n(int64(size)))
					hi := min(lo+uint64(rng.Int63n(int64(3*word))), size-1)
					checkMemtable(t, m, o, lo, hi, uint64(rng.Int63n(int64(seq)+1)))
					a, b := edges[rng.Intn(len(edges))], edges[rng.Intn(len(edges))]
					checkMemtable(t, m, o, min(a, b), max(a, b), uint64(rng.Int63n(int64(seq)+1)))
				}
				checkMemtable(t, m, o, 0, size-1, seq)
			}
			if got := m.entries.Load(); got != 3000 {
				t.Fatalf("entries %d, want 3000", got)
			}
			checkFlush(t, m, o)
		})
	}
}

// TestMemtableReadersDuringGrowth runs range readers against the one
// writer while its inserts grow (and so reallocate) the arena many times.
// Every scan at a published snapshot must be exact, and goes through the
// occupancy filter as a query's does. In the 1 024-key space (one key a
// bucket) a range ends up holding about 200 keys of many versions each,
// so a reader steps node by node and past older versions while the arena
// moves; in the 2^22-key space (four keys a bucket) a range is empty at
// first and holds about one key at the end, so scans go both ways through
// the filter. Under -race this is the memtable's concurrency test.
func TestMemtableReadersDuringGrowth(t *testing.T) {
	for _, size := range []uint64{1 << 10, 1 << 22} {
		t.Run(strconv.FormatUint(size, 10), func(t *testing.T) { testReadersDuringGrowth(t, size) })
	}
}

func testReadersDuringGrowth(t *testing.T, size uint64) {
	const puts = 20000
	keyOf := make([]uint64, puts+1) // op seq's key; its payload is seq
	rng := rand.New(rand.NewSource(11))
	for s := 1; s <= puts; s++ {
		keyOf[s] = uint64(rng.Int63n(int64(size)))
	}
	m := newMemtable(1, size)
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
	m := newMemtable(1, 4096)
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

// fuzzUniverses are the key spaces FuzzMemtable runs each input in, with
// the key a byte stands for: one byte a key and one key a bitmap bucket;
// and 2^22 keys, four a bucket, where the low bytes stand for keys three
// apart from 0, so a bucket holds one or two of them and they cross the
// first word boundary (key 256), and the high bytes for keys three
// apart up to the last key.
var fuzzUniverses = []struct {
	size uint64
	key  func(byte) uint64
}{
	{256, func(b byte) uint64 { return uint64(b) }},
	{1 << 22, func(b byte) uint64 {
		if b < 128 {
			return 3 * uint64(b)
		}
		return 1<<22 - 1 - 3*uint64(255-b)
	}},
}

// FuzzMemtable runs a fuzzed stream of puts, deletes and snapshot range
// scans against the oracle, then checks the flush run, in every key
// space of fuzzUniverses. A scan's op byte may widen its range out to
// the bounds of its end keys' buckets and bitmap words.
func FuzzMemtable(f *testing.F) {
	f.Add([]byte{5, 1, 0, 5, 4, 2, 0, 255, 3, 5, 9, 0, 5, 5, 0x21})
	f.Add([]byte{0, 0, 0, 255, 255, 0, 0, 255, 0xff})
	f.Fuzz(func(t *testing.T, raw []byte) {
		for _, u := range fuzzUniverses {
			m, o := newMemtable(1, u.size), memOracle{}
			bucket, word := uint64(1)<<m.shift-1, uint64(64)<<m.shift-1
			var seq uint64
			for i := 0; i+2 < len(raw); i += 3 {
				a, b, op := u.key(raw[i]), u.key(raw[i+1]), raw[i+2]
				if op&1 == 0 {
					seq++
					o.put(m, a, uint64(raw[i+1]), seq, raw[i+1]%4 == 0)
					continue
				}
				// A scan of [min(a,b), max(a,b)], widened as op's bits
				// 1 to 4 say, at a snapshot op picks.
				lo, hi := min(a, b), max(a, b)
				if op&2 != 0 {
					lo &^= bucket
				}
				if op&4 != 0 {
					hi |= bucket
				}
				if op&8 != 0 {
					lo &^= word
				}
				if op&16 != 0 {
					hi = min(hi|word, u.size-1)
				}
				snap := uint64(op>>1) % (seq + 1)
				if op == 0xff {
					snap = seq
				}
				checkMemtable(t, m, o, lo, hi, snap)
			}
			checkFlush(t, m, o)
		}
	})
}
