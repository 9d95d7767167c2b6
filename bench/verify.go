package main

import (
	"fmt"
	"math/rand"

	"github.com/onioncurve/onion/internal/geom"
)

// verify checks outputs against the oracle once the timed rounds are over.
func (r *run) verify() error {
	switch r.wl.kind {
	case kindRead:
		r.verifyQueries()
		r.cacheOff()
	case kindMixed:
		// The store now also holds the writer's puts, in stream order.
		st := newStream(r.cfg.seed, 0, 1)
		for i := uint64(0); i < r.writer.st.next; i++ {
			x, y, payload := st.point()
			r.d.oracle[cellOf(x, y)] = payload
		}
		r.verifyQueries()
	case kindIngest:
		return r.verifyPuts()
	}
	return nil
}

// verifyQueries compares every 50th query of Q, cells and payloads, with a
// brute-force filter of the oracle.
func (r *run) verifyQueries() {
	res := r.res
	seen := make(map[uint32]bool)
	for i := 0; i < len(r.d.rects); i += verifyEvery {
		rect := r.d.rects[i]
		res.attempted++
		var err error
		r.dst, _, err = r.st.QueryAppend(r.dst[:0], rect)
		if err != nil {
			res.fail("query %v: %v", rect, err)
			continue
		}
		want := 0
		for x := rect.Lo[0]; x <= rect.Hi[0]; x++ {
			for y := rect.Lo[1]; y <= rect.Hi[1]; y++ {
				if _, ok := r.d.oracle[cellOf(x, y)]; ok {
					want++
				}
			}
		}
		clear(seen)
		bad := ""
		for _, rec := range r.dst {
			cell := cellOf(rec.Point[0], rec.Point[1])
			switch payload, ok := r.d.oracle[cell]; {
			case !rect.Contains(rec.Point) || !ok:
				bad = fmt.Sprintf("returned %v, which the oracle does not have there", rec.Point)
			case payload != rec.Payload:
				bad = fmt.Sprintf("%v has payload %#x, the oracle %#x", rec.Point, rec.Payload, payload)
			case seen[cell]:
				bad = fmt.Sprintf("returned %v twice", rec.Point)
			}
			seen[cell] = true
		}
		if bad == "" && len(r.dst) != want {
			bad = fmt.Sprintf("%d records, the oracle has %d", len(r.dst), want)
		}
		if bad != "" {
			res.fail("query %v: %s", rect, bad)
		}
	}
}

// cacheOffRounds is how often the traced mode replays Q with the cache off.
// Ten rounds give every query a 10th percentile that is not its minimum.
const cacheOffRounds = 10

// cacheOff replays Q now that the directory is open with CacheBytes 0. Its
// logical counters must equal the cached rounds' exactly: the cache may
// change physical I/O only. Its latency is the yardstick beside query-cold,
// so it has to be the same statistic as op_p50_us, the median over Q of
// latencies settled over several rounds. Only the traced mode prints it, so
// only there, on the untraced run, are the rounds after the first made.
func (r *run) cacheOff() {
	rounds := 1
	if r.cfg.trace && r.tr == nil {
		rounds = cacheOffRounds
	}
	off := &result{}
	for i := 0; i < rounds; i++ {
		r.readRound(r.st.ShardedEngine, off, nil)
	}
	res := r.res
	res.cacheOffP50 = median(settledLatencies(off.lat, len(r.d.rects))) / 1e3
	res.attempted += off.attempted
	for _, f := range off.failures {
		res.fail("cache off: %s", f)
	}
	cached, got, want := int64(len(res.roundOpPerS)), res.q.logical(), off.q.logical()
	for i := range want {
		got[i] *= int64(rounds)
		want[i] *= cached
	}
	if got != want {
		res.fail("seeks, pages read, records scanned a round: %v over %d cached rounds, %v over %d with the cache off",
			res.q.logical(), cached, off.q.logical(), rounds)
	}
}

// verifyPuts looks up sampled acked puts in the reopened directory:
// each cell must hold the payload of the last put its producer sent there.
func (r *run) verifyPuts() error {
	res := r.res
	sample := rand.New(rand.NewSource(1)) // which puts are checked does not depend on -seed
	for p, prod := range r.prods {
		sent := int64(prod.st.next)
		if sent == 0 {
			continue
		}
		picked := make(map[int64]bool)
		for len(picked) < min(verifyPuts/producers, int(sent)) {
			picked[sample.Int63n(sent)] = true
		}
		// Two replays of the stream: the first finds the sampled cells,
		// the second the last payload sent to each.
		last := make(map[uint32]uint64)
		for pass := 0; pass < 2; pass++ {
			st := newStream(r.cfg.seed, p, producers)
			for i := int64(0); i < sent; i++ {
				x, y, payload := st.point()
				if _, ok := last[cellOf(x, y)]; ok || (pass == 0 && picked[i]) {
					last[cellOf(x, y)] = payload
				}
			}
		}
		for cell, payload := range last {
			pt := geom.Point{cell / side, cell % side}
			rect, err := geom.NewRect(pt, pt)
			if err != nil {
				return err
			}
			res.attempted++
			r.dst, _, err = r.st.QueryAppend(r.dst[:0], rect)
			switch {
			case err != nil:
				res.fail("lookup %v: %v", pt, err)
			case len(r.dst) != 1 || r.dst[0].Payload != payload:
				res.fail("lookup %v after reopen: %v, last acked payload %#x", pt, r.dst, payload)
			}
		}
	}
	return nil
}
