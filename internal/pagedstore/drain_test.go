package pagedstore

import (
	"path/filepath"
	"slices"
	"sort"
	"sync"
	"testing"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/vfs"
)

// liveWalk is what one walk of a plan keeps under the lone-source rule —
// the records by key and payload — and what it paid.
type liveWalk struct {
	keys, pays []uint64
	st         Stats
	io         IOStats
}

// liveByNextInto walks krs with NextInto and keeps, of each range, what a
// merge with the cursor as its one source keeps: the first of equal keys,
// and that one only if it is unmarked. It is AppendLive's reference.
func liveByNextInto(s *Store, krs []curve.KeyRange) (liveWalk, error) {
	var w liveWalk
	cur := s.AcquireCursor()
	defer cur.Release()
	var e Entry
	cur.Plan(krs)
	for cur.NextRange() {
		taken, last := false, uint64(0)
		for {
			ok, err := cur.NextInto(&e)
			if err != nil {
				return w, err
			}
			if !ok {
				break
			}
			if taken && e.Key == last {
				continue
			}
			taken, last = true, e.Key
			if !e.Marked {
				w.keys = append(w.keys, e.Key)
				w.pays = append(w.pays, e.Payload)
			}
		}
	}
	w.st, w.io = cur.Stats(), cur.IO()
	return w, nil
}

// liveByAppendLive drains every range of krs with AppendLive until it
// reports the range exhausted.
func liveByAppendLive(s *Store, krs []curve.KeyRange) (liveWalk, error) {
	var w liveWalk
	cur := s.AcquireCursor()
	defer cur.Release()
	var dst []Record
	var out KeyedRecords
	cur.Plan(krs)
	for cur.NextRange() {
		for more := true; more; {
			var err error
			if dst, more, err = cur.AppendLive(dst, &out); err != nil {
				return w, err
			}
		}
	}
	w.keys = out.keys
	for _, r := range dst {
		w.pays = append(w.pays, r.Payload)
	}
	w.st, w.io = cur.Stats(), cur.IO()
	return w, nil
}

// checkAppendLive opens the store at path twice, each opening behind a
// cache of its own of cacheBytes (none when 0), and walks krs twice on
// each — by NextInto under the lone-source rule on one, by AppendLive on
// the other — so the second pass meets what the first left cached. Pass
// by pass the two walks must keep the same records and pay the same Stats
// and IOStats. It returns AppendLive's first walk.
func checkAppendLive(t *testing.T, name, path string, o curve.Curve, krs []curve.KeyRange, cacheBytes int64) liveWalk {
	t.Helper()
	open := func() *Store {
		var pc *Cache
		if cacheBytes > 0 {
			pc = NewCache(cacheBytes)
		}
		s, err := OpenCachedFS(vfs.OS{}, path, o, pc)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		return s
	}
	ref, drained := open(), open()
	defer ref.Close()
	defer drained.Close()
	if cacheBytes > 0 {
		// A cache places a page by its store's id: with the reference's
		// id the drained opening's cache places, and so evicts, alike.
		drained.table.id = ref.table.id
	}
	var first liveWalk
	for pass := 0; pass < 2; pass++ {
		want, err := liveByNextInto(ref, krs)
		if err != nil {
			t.Fatalf("%s pass %d: NextInto: %v", name, pass, err)
		}
		got, err := liveByAppendLive(drained, krs)
		if err != nil {
			t.Fatalf("%s pass %d: AppendLive: %v", name, pass, err)
		}
		if !slices.Equal(got.keys, want.keys) || !slices.Equal(got.pays, want.pays) {
			t.Fatalf("%s pass %d: AppendLive kept %d records %v, NextInto %d %v",
				name, pass, len(got.keys), got.pays, len(want.keys), want.pays)
		}
		if got.st != want.st || got.io != want.io {
			t.Fatalf("%s pass %d: AppendLive paid %+v %+v, NextInto %+v %+v",
				name, pass, got.st, got.io, want.st, want.io)
		}
		if pass == 0 {
			first = got
		}
	}
	return first
}

// liveOracle is the lone-source rule applied to a seekCase by brute
// force: range by range, the first of each run of equal keys, if
// unmarked, by its payload (its position in the input).
func liveOracle(cs seekCase, krs []curve.KeyRange) []uint64 {
	var out []uint64
	for _, kr := range krs {
		i := sort.Search(len(cs.keys), func(i int) bool { return cs.keys[i] >= kr.Lo })
		for ; i < len(cs.keys) && cs.keys[i] <= kr.Hi; i++ {
			if (i == 0 || cs.keys[i-1] != cs.keys[i]) && !cs.marks[i] {
				out = append(out, uint64(i))
			}
		}
	}
	return out
}

// edgePlan derives a plan from a store's page index that puts its range
// bounds on page edges, going through three kinds page by page: the
// whole page, from its first key to its last (entered at a first key, so
// the visit to the page before is fence-pruned unless a run of one key
// crosses the edge; and left on a page's last key); the keys between the
// page's last and the next page's first, when there are any (an empty
// range between two pages); and the page's last key alone (whose copies
// may run on into the next page).
func edgePlan(s *Store) []curve.KeyRange {
	var krs []curve.KeyRange
	add := func(lo, hi uint64) {
		if lo <= hi && (len(krs) == 0 || lo > krs[len(krs)-1].Hi) {
			krs = append(krs, curve.KeyRange{Lo: lo, Hi: hi})
		}
	}
	for p, first := range s.firstKeys {
		last := s.pageMax[p]
		switch p % 3 {
		case 0:
			add(first, last)
		case 1:
			if p+1 < len(s.firstKeys) && s.firstKeys[p+1] > last+1 {
				add(last+1, s.firstKeys[p+1]-1)
			}
		default:
			add(last, last)
		}
	}
	return krs
}

// drainCoverage is which of the shapes AppendLive must be tested on a set
// of stores and plans reached.
type drainCoverage struct {
	width0, width32 bool // a page of key width 0, and of 32
	dupAcross       bool // a key whose copies cross a page edge, inside a range
	hiddenDup       bool // a marked first copy with an unmarked later one, inside a range
	pruned          bool // a range whose first visit its page's fence prunes
	endsOnLast      bool // a range that ends on a page's last key
	emptyBetween    bool // an empty range between two pages
}

func (c *drainCoverage) note(s *Store, cs seekCase, krs []curve.KeyRange) {
	for _, w := range s.widths {
		c.width0 = c.width0 || w == 0
		c.width32 = c.width32 || w == 32
	}
	in := func(key uint64) bool {
		j := sort.Search(len(krs), func(j int) bool { return krs[j].Hi >= key })
		return j < len(krs) && krs[j].Lo <= key
	}
	for p := 1; p < len(s.firstKeys); p++ {
		if s.firstKeys[p] == s.pageMax[p-1] && in(s.firstKeys[p]) {
			c.dupAcross = true
		}
	}
	for i := 1; i < len(cs.keys); i++ {
		if cs.keys[i] == cs.keys[i-1] && !cs.marks[i] && in(cs.keys[i]) {
			j := sort.Search(len(cs.keys), func(j int) bool { return cs.keys[j] >= cs.keys[i] })
			c.hiddenDup = c.hiddenDup || cs.marks[j]
		}
	}
	for _, kr := range krs {
		p := s.firstPage(0, kr.Lo)
		if p >= len(s.firstKeys) {
			continue
		}
		c.pruned = c.pruned || (s.firstKeys[p] <= kr.Hi && s.pageMax[p] < kr.Lo)
		q := sort.Search(len(s.pageMax), func(q int) bool { return s.pageMax[q] >= kr.Lo })
		if q < len(s.pageMax) {
			c.endsOnLast = c.endsOnLast || (s.pageMax[q] == kr.Hi && s.firstKeys[q] <= kr.Hi)
			c.emptyBetween = c.emptyBetween || (q > 0 && s.firstKeys[q] > kr.Hi && s.pageMax[q-1] < kr.Lo)
		}
	}
}

// TestAppendLiveMatchesNextInto holds the page drain to its reference:
// over FuzzCursorSeek's seed stores — tiny pages, key widths 0 to 32, runs
// of one key across page edges, one record in five marked — and two plans
// each, the generated one and edgePlan's, AppendLive keeps exactly what a
// NextInto loop keeps under the lone-source rule (and what the brute-force
// oracle keeps), with identical Stats and IOStats, bare and behind a
// cache that holds everything or one page a shard, cold and warm. Then
// goroutines drain one store through one small cache together, so under
// the race detector drained page images race admission and eviction; each
// keeps the reference's records and Stats.
func TestAppendLiveMatchesNextInto(t *testing.T) {
	narrow, wideCurve := seekCurves(t)
	var cov drainCoverage
	for ci, a := range seekSeeds() {
		o := narrow
		if a.wide {
			o = wideCurve
		}
		cs := genSeekCase(o, a.seed, a.n, a.perPage)
		path := filepath.Join(t.TempDir(), "drain.pst")
		writeMarked(t, path, o, cs.recs, cs.marks, cs.pageBytes)
		s, err := Open(path, o)
		if err != nil {
			t.Fatal(err)
		}
		plans := [][]curve.KeyRange{cs.krs, edgePlan(s)}
		for _, krs := range plans {
			cov.note(s, cs, krs)
		}
		s.Close()
		for pi, krs := range plans {
			want := liveOracle(cs, krs)
			for _, cache := range []struct {
				name  string
				bytes int64
			}{{"bare", 0}, {"ample cache", 64 << 20}, {"one-page shards", int64(cacheShardCount * cs.pageBytes)}} {
				name := cache.name
				got := checkAppendLive(t, name, path, o, krs, cache.bytes)
				if !slices.Equal(got.pays, want) {
					t.Fatalf("case %+v plan %d %s: AppendLive kept %v, the oracle %v", a, pi, name, got.pays, want)
				}
			}
		}
		if ci%8 == 0 {
			drainConcurrently(t, path, o, plans[0], int64(cacheShardCount*cs.pageBytes))
		}
	}
	for _, c := range []struct {
		ok   bool
		what string
	}{
		{cov.width0, "a page of key width 0"}, {cov.width32, "a page of key width 32"},
		{cov.dupAcross, "a key whose copies cross a page edge"},
		{cov.hiddenDup, "a marked first copy hiding an unmarked one"},
		{cov.pruned, "a fence-pruned leading page"},
		{cov.endsOnLast, "a range ending on a page's last key"},
		{cov.emptyBetween, "an empty range between two pages"},
	} {
		if !c.ok {
			t.Errorf("no store and plan had %s", c.what)
		}
	}
}

// drainConcurrently drains krs on four goroutines at once, through one
// cache of cacheBytes shared by one opening of the store, and holds each
// to a NextInto walk's records and Stats.
func drainConcurrently(t *testing.T, path string, o curve.Curve, krs []curve.KeyRange, cacheBytes int64) {
	t.Helper()
	s, err := OpenCachedFS(vfs.OS{}, path, o, NewCache(cacheBytes))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	want, err := liveByNextInto(s, krs)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				got, err := liveByAppendLive(s, krs)
				switch {
				case err != nil:
					errs <- err.Error()
					return
				case !slices.Equal(got.pays, want.pays) || got.st != want.st:
					errs <- "concurrent drain diverged from the NextInto walk"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}
