package engine

import (
	"time"

	"github.com/onioncurve/onion/internal/pagedstore"
	"github.com/onioncurve/onion/internal/telemetry"
)

// engineTelemetry holds pre-resolved handles into the engine's metric
// registry, so hot-path recording is a handful of atomic operations on
// preallocated memory — no map lookups, no allocation, no locks. The
// query path pins this with TestEngineQueryZeroAlloc.
//
// The metric names below are a stable contract, documented in the
// README's Observability section; renaming one is a breaking change.
type engineTelemetry struct {
	queries        *telemetry.Counter
	queryErrors    *telemetry.Counter
	queryLatencyUS *telemetry.Histogram
	plannedRanges  *telemetry.Histogram
	seeks          *telemetry.Counter
	pagesRead      *telemetry.Counter
	recordsScanned *telemetry.Counter
	recordsOut     *telemetry.Counter
	seekAmp        *telemetry.FloatGauge
	memSearches    *telemetry.Counter
	memSkips       *telemetry.Counter
	rangesDrained  *telemetry.Counter

	walAppends     *telemetry.Counter
	walAppendBytes *telemetry.Counter
	walFsyncs      *telemetry.Counter
	walFsyncUS     *telemetry.Histogram
	walBatch       *telemetry.Histogram
	walRotations   *telemetry.Counter

	flushUS      *telemetry.Histogram
	flushRecords *telemetry.Counter

	compactUS         *telemetry.Histogram
	compactSegsIn     *telemetry.Counter
	compactRecordsIn  *telemetry.Counter
	compactRecordsOut *telemetry.Counter
	compactTombsGC    *telemetry.Counter

	bgRetries *telemetry.Counter

	verifyPasses *telemetry.Counter
	quarantines  *telemetry.Counter

	snapshots  *telemetry.Counter
	snapshotUS *telemetry.Histogram
	repairs    *telemetry.Counter
	repairUS   *telemetry.Histogram
	salvaged   *telemetry.Counter
	backfilled *telemetry.Counter

	// healthTo counts state transitions by target state, indexed by
	// Health (escalations and recoveries alike).
	healthTo [Failed + 1]*telemetry.Counter
}

func newEngineTelemetry(reg *telemetry.Registry) *engineTelemetry {
	t := &engineTelemetry{
		queries:        reg.Counter("engine_queries_total"),
		queryErrors:    reg.Counter("engine_query_errors_total"),
		queryLatencyUS: reg.Histogram("engine_query_latency_us"),
		plannedRanges:  reg.Histogram("engine_query_planned_ranges"),
		seeks:          reg.Counter("engine_query_seeks_total"),
		pagesRead:      reg.Counter("engine_query_pages_read_total"),
		recordsScanned: reg.Counter("engine_query_records_scanned_total"),
		recordsOut:     reg.Counter("engine_query_records_total"),
		seekAmp:        reg.FloatGauge("engine_query_seek_amplification"),
		memSearches:    reg.Counter("engine_memtable_searches_total"),
		memSkips:       reg.Counter("engine_memtable_searches_skipped_total"),
		rangesDrained:  reg.Counter("engine_ranges_drained_total"),

		walAppends:     reg.Counter("engine_wal_appends_total"),
		walAppendBytes: reg.Counter("engine_wal_append_bytes_total"),
		walFsyncs:      reg.Counter("engine_wal_fsyncs_total"),
		walFsyncUS:     reg.Histogram("engine_wal_fsync_us"),
		walBatch:       reg.Histogram("engine_wal_group_commit_batch"),
		walRotations:   reg.Counter("engine_wal_rotations_total"),

		flushUS:      reg.Histogram("engine_flush_us"),
		flushRecords: reg.Counter("engine_flush_records_total"),

		compactUS:         reg.Histogram("engine_compaction_us"),
		compactSegsIn:     reg.Counter("engine_compaction_segments_in_total"),
		compactRecordsIn:  reg.Counter("engine_compaction_records_in_total"),
		compactRecordsOut: reg.Counter("engine_compaction_records_out_total"),
		compactTombsGC:    reg.Counter("engine_compaction_tombstones_dropped_total"),

		bgRetries: reg.Counter("engine_bg_retries_total"),

		verifyPasses: reg.Counter("engine_verify_passes_total"),
		quarantines:  reg.Counter("engine_quarantined_segments_total"),

		snapshots:  reg.Counter("engine_snapshots_total"),
		snapshotUS: reg.Histogram("engine_snapshot_us"),
		repairs:    reg.Counter("engine_repairs_total"),
		repairUS:   reg.Histogram("engine_repair_us"),
		salvaged:   reg.Counter("engine_repair_salvaged_records_total"),
		backfilled: reg.Counter("engine_repair_backfilled_records_total"),
	}
	for h := Healthy; h <= Failed; h++ {
		t.healthTo[h] = reg.Counter(telemetry.WithLabel("engine_health_transitions_total", "to", h.String()))
	}
	return t
}

// recordQuery tallies one finished query. start is when the public call
// began; st is the final logical stat set; searches and skips are the
// (range, memtable) pairs the query searched and those the occupancy
// bitmap let it skip; drained is the ranges whose one source was a
// segment, drained page by page without a merge. Errors count separately
// and contribute no latency sample, so the histograms describe served
// queries only.
func (t *engineTelemetry) recordQuery(start time.Time, st Stats, searches, skips, drained int, err error) {
	if err != nil {
		t.queryErrors.Inc()
		return
	}
	t.queries.Inc()
	t.queryLatencyUS.Record(uint64(time.Since(start).Microseconds()))
	if st.Planned > 0 {
		t.plannedRanges.Record(uint64(st.Planned))
		// Seek amplification: seeks per planned cluster range.
		// The planner's range count is the paper's clustering number, so
		// 1.0 means the engine pays exactly the clustering-optimal seek
		// cost; the LSM's extra sorted runs push it above 1.
		t.seekAmp.Set(float64(st.Seeks) / float64(st.Planned))
	}
	t.seeks.Add(uint64(st.Seeks))
	t.pagesRead.Add(uint64(st.PagesRead))
	t.recordsScanned.Add(uint64(st.RecordsScanned))
	t.recordsOut.Add(uint64(st.Results))
	t.memSearches.Add(uint64(searches))
	t.memSkips.Add(uint64(skips))
	t.rangesDrained.Add(uint64(drained))
}

// registerSampledTelemetry wires the gauges and counters whose truth
// lives elsewhere in the engine — shape gauges sampled at scrape time,
// and lifetime counters already maintained for EngineStats. The page
// cache is not among them: its owner exports it (RegisterCacheTelemetry),
// so a cache shared across shards is exported exactly once, never
// multiplied by the roll-up.
func (e *Engine) registerSampledTelemetry() {
	reg := e.reg
	reg.GaugeFunc("engine_health_state", func() int64 { return int64(e.health.state.Load()) })
	reg.GaugeFunc("engine_memtable_entries", e.memEntries)
	reg.GaugeFunc("engine_imm_memtables", func() int64 {
		e.mu.RLock()
		defer e.mu.RUnlock()
		return int64(len(e.imm))
	})
	reg.GaugeFunc("engine_segments", func() int64 {
		e.mu.RLock()
		defer e.mu.RUnlock()
		return int64(len(e.segs))
	})
	reg.GaugeFunc("engine_segment_records", func() int64 {
		e.mu.RLock()
		defer e.mu.RUnlock()
		var n int64
		for _, s := range e.segs {
			n += int64(s.recs)
		}
		return n
	})
	reg.GaugeFunc("engine_wal_bytes", e.walBytes.Load)
	reg.CounterFunc("engine_flushes_total", e.flushes.Load)
	reg.CounterFunc("engine_compactions_total", e.compactions.Load)
}

// RegisterCacheTelemetry exports a page cache's monotonic counters and
// resident-set gauges on the given registry. The counters are sampled
// from the same per-shard words CacheStats sums, so a registry scrape and
// a CacheStats snapshot can never disagree. The shard router calls this
// for the cache it shares across its engines; whoever else builds a
// cache calls it on a registry of their choice.
func RegisterCacheTelemetry(reg *telemetry.Registry, cache *pagedstore.Cache) {
	reg.CounterFunc("cache_hits_total", func() uint64 { h, _, _, _ := cache.Counters(); return h })
	reg.CounterFunc("cache_misses_total", func() uint64 { _, m, _, _ := cache.Counters(); return m })
	reg.CounterFunc("cache_evictions_total", func() uint64 { _, _, ev, _ := cache.Counters(); return ev })
	reg.CounterFunc("cache_admission_rejects_total", func() uint64 { _, _, _, a := cache.Counters(); return a })
	reg.GaugeFunc("cache_resident_bytes", func() int64 { return cache.Stats().Bytes })
	reg.GaugeFunc("cache_resident_pages", func() int64 { return int64(cache.Stats().Pages) })
}

// Telemetry returns the engine's metric registry. It is always non-nil;
// see the README's Observability section for the metric name contract.
func (e *Engine) Telemetry() *telemetry.Registry { return e.reg }

// Events returns the engine's maintenance event stream: flush,
// compaction, snapshot, repair, scrub and health lifecycle events in a
// bounded ring.
func (e *Engine) Events() *telemetry.Events { return e.events }

// TelemetrySnapshot snapshots the registry with the recent maintenance
// events attached — the form WriteJSON and WritePrometheus consume.
func (e *Engine) TelemetrySnapshot() telemetry.Snapshot {
	s := e.reg.Snapshot()
	if e.events != nil {
		s.Events = e.events.Recent(nil)
	}
	return s
}

// emitEvent stamps and stores a maintenance event. Shard is set to -1
// here; the shard router rewrites it when merging per-shard streams.
func (e *Engine) emitEvent(ev telemetry.Event) {
	if e.events == nil {
		return
	}
	ev.Shard = -1
	e.events.Emit(ev)
}

// errString renders an error for an event field ("" for nil).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}
