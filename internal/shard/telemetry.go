package shard

import (
	"sort"
	"time"

	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/telemetry"
)

// routerTelemetry holds pre-resolved handles into the router's own metric
// registry — the service-level counters that exist above any one shard
// engine: fan-out shape and degraded serving. Per-shard storage metrics
// live in each engine's registry and are rolled up by TelemetrySnapshot.
type routerTelemetry struct {
	queries        *telemetry.Counter
	queryLatencyUS *telemetry.Histogram
	fanoutShards   *telemetry.Histogram
	subRanges      *telemetry.Histogram
	plannedRanges  *telemetry.Histogram
	seekAmp        *telemetry.FloatGauge
	partialQueries *telemetry.Counter
	shardFailures  *telemetry.Counter
}

func newRouterTelemetry(reg *telemetry.Registry) *routerTelemetry {
	return &routerTelemetry{
		queries:        reg.Counter("router_queries_total"),
		queryLatencyUS: reg.Histogram("router_query_latency_us"),
		fanoutShards:   reg.Histogram("router_fanout_shards"),
		subRanges:      reg.Histogram("router_subranges"),
		plannedRanges:  reg.Histogram("router_planned_ranges"),
		seekAmp:        reg.FloatGauge("router_seek_amplification"),
		partialQueries: reg.Counter("router_partial_queries_total"),
		shardFailures:  reg.Counter("router_shard_failures_total"),
	}
}

// recordQuery tallies one served query. start is when the public call
// began; failed queries contribute no sample.
func (t *routerTelemetry) recordQuery(start time.Time, st *Stats) {
	t.queries.Inc()
	t.queryLatencyUS.Record(uint64(time.Since(start).Microseconds()))
	t.fanoutShards.Record(uint64(st.ShardsTouched))
	t.subRanges.Record(uint64(st.SubRanges))
	if st.Planned > 0 {
		t.plannedRanges.Record(uint64(st.Planned))
		// Seek amplification where Planned is known: the shard engines
		// execute pre-planned sub-ranges (their own gauge stays dark), so
		// the router owns the paper's number — seeks summed over the
		// touched shards per planned cluster range. Shard boundaries and
		// the LSM's extra sorted runs push it above 1.
		t.seekAmp.Set(float64(st.Seeks) / float64(st.Planned))
	}
	if st.Degraded {
		t.partialQueries.Inc()
		t.shardFailures.Add(uint64(len(st.FailedShards)))
	}
}

// Telemetry returns the router's own metric registry: fan-out and
// degradation counters, plus the shared page cache series when the
// router created the cache. Per-shard engine metrics are NOT here — use
// TelemetrySnapshot for the full labeled roll-up.
func (s *Sharded) Telemetry() *telemetry.Registry { return s.reg }

// TelemetrySnapshot snapshots the whole service: every shard engine's
// registry rolled into per-metric aggregates (counters and histograms
// sum; gauges sum; float gauges average) plus per-shard labeled copies
// (shard="0", ...), the router's own metrics, and the per-shard
// maintenance event streams merged into one time-ordered stream with
// Event.Shard rewritten to the owning shard's index.
func (s *Sharded) TelemetrySnapshot() telemetry.Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	snaps := make([]telemetry.Snapshot, len(s.engines))
	for i, e := range s.engines {
		snaps[i] = e.Telemetry().Snapshot()
	}
	out := telemetry.Rollup("shard", snaps)
	own := s.reg.Snapshot()
	out.Metrics = append(out.Metrics, own.Metrics...)
	sort.Slice(out.Metrics, func(a, b int) bool { return out.Metrics[a].Name < out.Metrics[b].Name })

	var evs []telemetry.Event
	for i, e := range s.engines {
		for _, ev := range e.Events().Recent(nil) {
			ev.Shard = i
			evs = append(evs, ev)
		}
	}
	telemetry.SortEventsByTime(evs)
	out.Events = evs
	return out
}

// Events returns shard i's maintenance event stream (Event.Shard is -1
// on the per-engine stream; TelemetrySnapshot rewrites it when merging).
func (s *Sharded) Events(i int) *telemetry.Events { return s.engines[i].Events() }

// registerRouterTelemetry wires the router registry's sampled series:
// the shard count and, when caching is on, the shared page cache's
// counters — exported here exactly once rather than once per shard
// engine (engines never export a cache).
func (s *Sharded) registerRouterTelemetry() {
	s.reg.GaugeFunc("router_shards", func() int64 { return int64(len(s.engines)) })
	if s.cache != nil {
		engine.RegisterCacheTelemetry(s.reg, s.cache)
	}
}
