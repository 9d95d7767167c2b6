package shard

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/partition"
	"github.com/onioncurve/onion/internal/ranges"
)

// Stats is the aggregated physical access pattern of one sharded query.
//
// Aggregation contract: shard boundaries are contiguous curve-key
// intervals, so each touched shard executes exactly the part of the plan
// that falls inside its interval against exactly the records whose keys
// fall inside its interval. Its counters are therefore bit-identical to
// what a single engine holding only that shard's records reports for the
// same sub-plan (TestShardedCrossCheck verifies this bit for bit). The
// embedded aggregate is the sum of those per-shard counters:
//
//   - Seeks, PagesRead, RecordsScanned, MemEntries and Segments sum over
//     the touched shards. A cluster range that spans k shard boundaries
//     is executed as k+1 sub-scans, so the aggregate Seeks can exceed a
//     single unpartitioned engine's count by at most the number of
//     boundary crossings — the price of partitioning, made visible
//     rather than hidden.
//   - Planned is the output of the router's single RangePlanner call —
//     the clustering number of the rectangle, identical to the
//     unpartitioned engine's Planned.
//   - Results, and the records themselves, are bit-identical to the
//     unpartitioned engine's: per-shard outputs are ascending in key and
//     shard intervals are ascending, so their concatenation is the
//     globally key-sorted result set.
//   - IO — the physical reads after caching and segment-footer pruning —
//     also sums over shards, but is NOT part of the bit-identical
//     contract: it depends on cache state, which no two stores share.
//
// With a single shard the whole Stats except IO is bit-identical to the
// unpartitioned engine's.
type Stats struct {
	engine.Stats
	// ShardsTouched is the number of shards the plan intersected.
	ShardsTouched int
	// SubRanges is the total number of shard-local ranges after
	// splitting the plan at shard boundaries (>= Planned).
	SubRanges int
	// PerShard is the per-shard breakdown, in ascending shard order,
	// touched shards only.
	PerShard []ShardStats
	// Degraded reports that a QueryPolicy.Partial query skipped one or
	// more failing shards: the result set is missing whatever records
	// those shards held in the queried region. FailedShards lists them.
	// Strict queries never set it — they return the error instead.
	Degraded     bool
	FailedShards []int
}

// ShardStats is one shard's contribution to a query.
type ShardStats struct {
	// Shard is the shard index.
	Shard int
	engine.Stats
}

// partRef names one shard's sub-plan inside a flat split plan:
// flat[start:end] is the shard-clipped range run it executes.
type partRef struct {
	shard      int
	start, end int
}

// splitPlanFlat splits a sorted disjoint plan at shard boundaries into
// one flat range list plus per-shard slices of it, reusing the supplied
// backing arrays — the allocation-free form the router's pooled query
// state drives. The concatenation of the parts' ranges covers exactly
// the plan's keys, in ascending shard (and key) order.
func splitPlanFlat(part *partition.Partitioner, plan []curve.KeyRange, flat []curve.KeyRange, parts []partRef) ([]curve.KeyRange, []partRef) {
	flat, parts = flat[:0], parts[:0]
	for _, kr := range plan {
		lo := kr.Lo
		for {
			si := part.Of(lo)
			iv, ok := part.Interval(si)
			if !ok {
				// Of returns the shard owning lo, which by construction
				// has a non-empty interval.
				panic(fmt.Sprintf("shard: key %d routed to empty shard %d", lo, si))
			}
			hi := kr.Hi
			if iv.Hi < hi {
				hi = iv.Hi
			}
			flat = append(flat, curve.KeyRange{Lo: lo, Hi: hi})
			if n := len(parts); n > 0 && parts[n-1].shard == si {
				parts[n-1].end = len(flat)
			} else {
				parts = append(parts, partRef{shard: si, start: len(flat) - 1, end: len(flat)})
			}
			if hi >= kr.Hi {
				break
			}
			lo = hi + 1
		}
	}
	return flat, parts
}

// routerQuery is the pooled scratch of one query: the plan buffer and the
// flat split plan. States recycle through rqPool, so the router's steady
// state costs no per-query allocation beyond the caller-visible PerShard
// breakdown.
type routerQuery struct {
	plan  []curve.KeyRange
	flat  []curve.KeyRange
	parts []partRef
}

var rqPool = sync.Pool{New: func() any { return new(routerQuery) }}

// Query returns every live record whose point lies inside r together
// with the aggregated access pattern (see Stats for the contract). The
// rectangle is planned ONCE with the curve's range planner; the plan is
// split at shard boundaries and sent only to intersecting shards, one
// after another on the caller's goroutine.
func (s *Sharded) Query(r geom.Rect) ([]Record, Stats, error) {
	return s.QueryAppendContext(context.Background(), nil, r, QueryPolicy{})
}

// QueryPolicy selects how a query treats shards that cannot answer.
type QueryPolicy struct {
	// Partial serves what the healthy shards can: a shard whose
	// sub-query fails is skipped, its records are simply absent from the
	// result, Stats.Degraded is set and Stats.FailedShards names it. The
	// query only errors when every touched shard failed, or on
	// cancellation. The zero policy is strict: any shard failure fails
	// the query.
	Partial bool
}

// QueryAppend is Query appending into dst: recycling the same dst across
// queries reuses the record slots and their Point buffers. Stats.Results
// counts only the records this call appended.
func (s *Sharded) QueryAppend(dst []Record, r geom.Rect) ([]Record, Stats, error) {
	return s.QueryAppendContext(context.Background(), dst, r, QueryPolicy{})
}

// QueryAppendContext is QueryAppend under a context and an explicit
// failure policy: a context already done returns ctx.Err() before any
// planning, cancellation interrupts the per-shard scans (each shard
// checks the context between and — amortized — inside ranges), and pol
// selects strict versus partial results when shards fail.
func (s *Sharded) QueryAppendContext(ctx context.Context, dst []Record, r geom.Rect, pol QueryPolicy) ([]Record, Stats, error) {
	if err := ctx.Err(); err != nil {
		return dst, Stats{}, err
	}
	rtel := s.rtel
	var start time.Time
	if rtel != nil {
		start = time.Now()
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return dst, Stats{}, ErrClosed
	}
	q := rqPool.Get().(*routerQuery)
	dst, st, err := s.exec(ctx, q, dst, r, pol)
	rqPool.Put(q)
	if rtel != nil && err == nil {
		rtel.recordQuery(start, &st)
	}
	return dst, st, err
}

// exec plans r once and runs the split plan's parts in shard order, each
// shard appending straight into dst: shard order is key order, so dst
// comes out key-sorted with no record copied twice. A failed part leaves
// nothing behind (QueryRanges returns dst as it found it), so a strict
// failure returns the caller's prefix and a partial one keeps every
// other shard's records.
func (s *Sharded) exec(ctx context.Context, q *routerQuery, dst []Record, r geom.Rect, pol QueryPolicy) ([]Record, Stats, error) {
	rtel := s.rtel
	// One planner call per query, whatever the fan-out.
	var err error
	q.plan, err = ranges.DecomposeAppend(s.c, r, 0, q.plan)
	if err != nil {
		return dst, Stats{}, fmt.Errorf("shard: %w", err)
	}
	var st Stats
	st.Planned = len(q.plan)
	q.flat, q.parts = splitPlanFlat(s.part, q.plan, q.flat, q.parts)
	st.ShardsTouched = len(q.parts)
	base := len(dst)
	var firstErr error
	for _, p := range q.parts {
		var pst engine.Stats
		var perr error
		dst, pst, perr = s.engines[p.shard].QueryRanges(ctx, dst, q.flat[p.start:p.end])
		if perr == nil {
			if st.PerShard == nil {
				st.PerShard = make([]ShardStats, 0, len(q.parts))
			}
			st.PerShard = append(st.PerShard, ShardStats{Shard: p.shard, Stats: pst})
			continue
		}
		// Cancellation is never maskable: a partial result under a fired
		// deadline would read as a degraded-but-served answer when it is
		// actually an abandoned one.
		if !pol.Partial || errors.Is(perr, context.Canceled) || errors.Is(perr, context.DeadlineExceeded) {
			if rtel != nil {
				rtel.shardFailures.Inc()
			}
			st.PerShard = nil
			return dst[:base], st, fmt.Errorf("shard %d: %w", p.shard, perr)
		}
		if firstErr == nil {
			firstErr = perr
		}
		st.Degraded = true
		st.FailedShards = append(st.FailedShards, p.shard)
	}
	if st.Degraded && len(st.FailedShards) == len(q.parts) {
		// Nothing answered; "partial" would be an empty lie.
		return dst, st, fmt.Errorf("shard %d: %w", q.parts[0].shard, firstErr)
	}
	st.SubRanges = len(q.flat)
	for _, ps := range st.PerShard {
		st.Stats.Add(ps.Stats)
	}
	st.Results = len(dst) - base
	return dst, st, nil
}
