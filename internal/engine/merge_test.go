package engine

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"testing"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/pagedstore"
	"github.com/onioncurve/onion/internal/vfs"
)

// mergeEmit is one key mergeSources handed its sink: the winner's head
// and priority.
type mergeEmit struct {
	e    pagedstore.Entry
	prio int
}

// recordSink records every emit and calls after, if set, with the count
// so far.
type recordSink struct {
	got   []mergeEmit
	after func(n int)
}

func (r *recordSink) emit(win *mergeSource) {
	r.got = append(r.got, mergeEmit{e: win.head, prio: win.prio})
	if r.after != nil {
		r.after(len(r.got))
	}
}

// mergeOracle is what the k-way loop emits for one range: each distinct
// key in [kr.Lo, kr.Hi], ascending, from the newest source holding it,
// as the first of that source's entries with the key.
func mergeOracle(srcs [][]pagedstore.Entry, kr curve.KeyRange) []mergeEmit {
	first := make([]map[uint64]pagedstore.Entry, len(srcs))
	for prio, ents := range srcs {
		first[prio] = make(map[uint64]pagedstore.Entry)
		for _, e := range ents {
			if _, ok := first[prio][e.Key]; !ok {
				first[prio][e.Key] = e
			}
		}
	}
	var out []mergeEmit
	for key := kr.Lo; ; key++ {
		for prio := len(srcs) - 1; prio >= 0; prio-- {
			if e, ok := first[prio][key]; ok {
				out = append(out, mergeEmit{e: e, prio: prio})
				break
			}
		}
		if key == kr.Hi {
			return out
		}
	}
}

// entries returns one entry a key, payload key*mul+add, with every key
// divisible by tomb (when nonzero) a tombstone.
func entries(keys []uint64, mul, add, tomb uint64) []pagedstore.Entry {
	out := make([]pagedstore.Entry, len(keys))
	for i, k := range keys {
		out[i] = pagedstore.Entry{Key: k, Payload: k*mul + add, Marked: tomb != 0 && k%tomb == 0}
	}
	return out
}

func keyRun(lo, hi, step uint64) []uint64 {
	var out []uint64
	for k := lo; k <= hi; k += step {
		out = append(out, k)
	}
	return out
}

// TestMergeSourcesDrain holds mergeSources to the output of its general
// k-way loop wherever a range is left with one live source — from the
// start, or after the newer sources run dry — and it drains that source
// straight into the sink. Segment sources are written with 64-byte pages,
// so a run of one key crosses page boundaries, and the last source of a
// case may be a memtable.
func TestMergeSourcesDrain(t *testing.T) {
	c, _ := core.NewOnion2D(64) // 4 096 keys
	full := curve.KeyRange{Lo: 0, Hi: 4095}
	dup := entries(keyRun(100, 110, 1), 1, 0, 0)
	for i := 0; i < 40; i++ { // key 105, 41 times, over several pages
		dup = append(dup[:6], append([]pagedstore.Entry{{Key: 105, Payload: uint64(1000 + i)}}, dup[6:]...)...)
	}
	cases := []struct {
		name string
		segs [][]pagedstore.Entry // oldest first
		mem  []pagedstore.Entry   // newest source when set: one version a key
		plan []curve.KeyRange
	}{
		{name: "one source, key repeated across pages", segs: [][]pagedstore.Entry{dup},
			plan: []curve.KeyRange{full, {Lo: 105, Hi: 105}}},
		{name: "newer source runs dry mid-range",
			segs: [][]pagedstore.Entry{entries(keyRun(0, 999, 1), 1, 0, 0), entries(keyRun(0, 300, 3), 7, 1, 0)},
			plan: []curve.KeyRange{full, {Lo: 250, Hi: 600}}},
		{name: "older source runs dry mid-range",
			segs: [][]pagedstore.Entry{entries(keyRun(0, 300, 2), 1, 0, 0), entries(keyRun(0, 999, 5), 7, 1, 0)},
			plan: []curve.KeyRange{full}},
		{name: "tombstones in the drained source",
			segs: [][]pagedstore.Entry{entries(keyRun(0, 2000, 1), 1, 0, 3), entries(keyRun(0, 40, 1), 7, 1, 4)},
			plan: []curve.KeyRange{full, {Lo: 10, Hi: 60}, {Lo: 61, Hi: 4095}}},
		{name: "three sources, each the last in turn",
			segs: [][]pagedstore.Entry{entries(keyRun(500, 3000, 2), 1, 0, 0), entries(keyRun(0, 1200, 3), 5, 0, 7), entries(keyRun(200, 700, 1), 9, 0, 0)},
			plan: []curve.KeyRange{full, {Lo: 600, Hi: 1300}}},
		{name: "memtable runs dry, segment drains",
			segs: [][]pagedstore.Entry{entries(keyRun(0, 1500, 1), 1, 0, 0)},
			mem:  entries(keyRun(0, 90, 9), 3, 2, 2), plan: []curve.KeyRange{full}},
		{name: "memtable alone drains",
			mem: entries(keyRun(7, 3000, 7), 3, 2, 5), plan: []curve.KeyRange{full, {Lo: 13, Hi: 27}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			srcs, all := mergeFixture(t, c, tc.segs, tc.mem)
			for _, kr := range tc.plan {
				pass := passOver(srcs, kr)
				sink := &recordSink{}
				var scratch []*mergeSource
				if err := mergeSources(pass, &scratch, sink, context.Background()); err != nil {
					t.Fatal(err)
				}
				checkEmits(t, kr, sink.got, mergeOracle(all, kr))
			}
		})
	}
	// Key 105's copies do span pages: one drained range of it reads
	// several.
	srcs, _ := mergeFixture(t, c, [][]pagedstore.Entry{dup}, nil)
	var scratch []*mergeSource
	if err := mergeSources(passOver(srcs, curve.KeyRange{Lo: 105, Hi: 105}), &scratch, &recordSink{}, nil); err != nil {
		t.Fatal(err)
	}
	if st := srcs[0].cur.Stats(); st.PagesRead < 2 || st.Results != 41 {
		t.Fatalf("key 105 read as %+v, want 41 records over several pages", st)
	}

	// A context cancelled while one source drains stops the merge at the
	// next poll, 1 023 emits in, having emitted exactly the oracle's
	// prefix.
	for _, cancelAt := range []int{1, 500, 1022} {
		t.Run(fmt.Sprintf("cancelled at emit %d", cancelAt), func(t *testing.T) {
			segs := [][]pagedstore.Entry{entries(keyRun(0, 3999, 1), 1, 0, 11), entries(keyRun(0, 20, 2), 7, 1, 0)}
			srcs, all := mergeFixture(t, c, segs, nil)
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			sink := &recordSink{after: func(n int) {
				if n == cancelAt {
					cancel()
				}
			}}
			var scratch []*mergeSource
			err := mergeSources(passOver(srcs, full), &scratch, sink, ctx)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("merge returned %v, want context.Canceled", err)
			}
			checkEmits(t, full, sink.got, mergeOracle(all, full)[:1023])
		})
	}
}

// source is one fixture source: a segment cursor or a memtable.
type source struct {
	cur *pagedstore.Cursor
	mem *memtable
}

// mergeFixture writes each segment of segs to a store with 64-byte pages
// and puts mem into a memtable, returning them oldest first with their
// entries.
func mergeFixture(t *testing.T, c curve.Curve, segs [][]pagedstore.Entry, mem []pagedstore.Entry) ([]source, [][]pagedstore.Entry) {
	t.Helper()
	var srcs []source
	for i, ents := range segs {
		path := filepath.Join(t.TempDir(), fmt.Sprintf("seg%d.pst", i))
		if err := pagedstore.WriteEntries(vfs.OS{}, path, c, ents, 64); err != nil {
			t.Fatal(err)
		}
		st, err := pagedstore.Open(path, c)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		srcs = append(srcs, source{cur: st.NewCursor()})
	}
	all := segs
	if mem != nil {
		m := newMemtable(1, c.Universe().Size())
		for i, e := range mem {
			m.put(e.Key, e.Payload, uint64(i+1), e.Marked)
		}
		srcs = append(srcs, source{mem: m})
		all = append(all[:len(all):len(all)], mem)
	}
	return srcs, all
}

// passOver positions every source on kr, as the query path does for one
// range of its plan, and returns the merge's sources, priority = age.
func passOver(srcs []source, kr curve.KeyRange) []*mergeSource {
	pass := make([]*mergeSource, len(srcs))
	for i, s := range srcs {
		pass[i] = &mergeSource{prio: i}
		if s.cur != nil {
			s.cur.Plan([]curve.KeyRange{kr})
			s.cur.NextRange()
			pass[i].cur = s.cur
		} else {
			it := &memIter{}
			it.init(s.mem, kr, ^uint64(0)>>1)
			pass[i].mem = it
		}
	}
	return pass
}

func checkEmits(t *testing.T, kr curve.KeyRange, got, want []mergeEmit) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%v: %d emits, want %d", kr, len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%v: emit %d = %+v, want %+v", kr, i, got[i], want[i])
		}
	}
}
