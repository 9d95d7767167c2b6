package main

import (
	"slices"
	"time"

	onion "github.com/onioncurve/onion"
	"github.com/onioncurve/onion/internal/ranges"
	"github.com/onioncurve/onion/internal/telemetry"
)

// metric is one named number of the output.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef is one row of BENCHMARK.json. Per-layer metrics have no bound.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the store sees; every workload
// reports all of them, always from the untraced run.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"op_per_s", "1/s", "higher", 0.25},
	{"op_p50_us", "us", "lower", 0.25},
	{"disk_bytes_per_user_byte", "ratio", "lower", 0.02},
}

// perLayer are the metrics of single layers, named layer.metric after the
// module they describe. README.md says which end-to-end metric each one
// should move, and on which workload.
var perLayer = []metricDef{
	{"core.index_ns_per_point", "ns", "lower", 0},
	{"ranges.plan_ns_per_op", "ns", "lower", 0},
	{"ranges.clusters_per_op", "count", "lower", 0},
	{"ranges.plan_ns_per_cluster", "ns", "lower", 0},
	{"baseline.hilbert_clusters_per_op", "count", "lower", 0},
	{"baseline.zcurve_clusters_per_op", "count", "lower", 0},

	{"pagedstore.seeks_per_op", "count", "lower", 0},
	{"pagedstore.pages_read_per_op", "count", "lower", 0},
	{"pagedstore.scanned_per_result", "ratio", "lower", 0},
	{"pagedstore.pages_fetched_per_op", "count", "lower", 0},
	{"pagedstore.cache_hit_ratio", "ratio", "higher", 0},
	{"pagedstore.cache_evictions_per_op", "count", "lower", 0},
	{"pagedstore.cache_admission_rejects_per_op", "count", "lower", 0},
	{"pagedstore.cache_off_op_p50_us", "us", "lower", 0},

	{"engine.query_self_ns_per_op", "ns", "lower", 0},
	{"engine.ns_per_seek", "ns", "lower", 0},
	{"engine.mem_entries_per_op", "count", "lower", 0},
	{"engine.segments_per_op", "count", "lower", 0},
	{"engine.wal_fsyncs_per_kop", "count", "lower", 0},
	{"engine.wal_bytes_per_user_byte", "ratio", "lower", 0},
	{"engine.wal_fsync_p50_us", "us", "lower", 0},
	{"engine.flushes", "count", "lower", 0},
	{"engine.compactions", "count", "lower", 0},
	{"engine.flush_busy_frac", "ratio", "lower", 0},
	{"engine.compaction_busy_frac", "ratio", "lower", 0},
	{"engine.compaction_records_in_per_op", "count", "lower", 0},

	{"shard.shards_touched_per_op", "count", "lower", 0},
	{"shard.subranges_per_op", "count", "lower", 0},
	{"shard.admission_wait_p50_us", "us", "lower", 0},

	{"ingest.ops_per_batch", "count", "higher", 0},
	{"ingest.coalesced_per_kop", "count", "higher", 0},
	{"ingest.enqueue_wait_p50_us", "us", "lower", 0},
	{"ingest.ack_p50_us", "us", "lower", 0},
	{"ingest.ack_p99_us", "us", "lower", 0},
	{"ingest.acked_per_s", "1/s", "higher", 0},
	{"ingest.late_p50_us", "us", "lower", 0},

	{"repl.append_rtt_p50_us", "us", "lower", 0},
	{"repl.appends_per_batch", "count", "lower", 0},
	{"repl.entries_per_append", "count", "higher", 0},
	{"repl.quorum_latency_p50_us", "us", "lower", 0},
	{"repl.seeds", "count", "lower", 0},
	{"repl.send_errors", "count", "lower", 0},
	{"repl.follower_lag_end", "count", "lower", 0},

	{"vfs.read_calls_per_op", "count", "lower", 0},
	{"vfs.read_bytes_per_op", "B", "lower", 0},
	{"vfs.read_ns_per_op", "ns", "lower", 0},
	{"vfs.write_calls_per_kop", "count", "lower", 0},
	{"vfs.write_bytes_per_user_byte", "ratio", "lower", 0},
	{"vfs.fsyncs_per_kop", "count", "lower", 0},
	{"vfs.fsync_p50_us", "us", "lower", 0},
	{"vfs.fsync_busy_frac", "ratio", "lower", 0},

	{"bench.op_per_s_raw", "1/s", "higher", 0},
	{"bench.op_p50_us_raw", "us", "lower", 0},
	{"bench.op_p99_us", "us", "lower", 0},
	{"bench.round_spread", "ratio", "lower", 0},
	{"bench.cpu_s_per_kop", "s", "lower", 0},
	{"bench.allocs_per_op", "count", "lower", 0},
	{"bench.rss_peak_mb", "MB", "lower", 0},
	{"bench.steal_frac", "ratio", "lower", 0},
	{"bench.trace_overhead_frac", "ratio", "lower", 0},
}

// quantile returns the q-quantile of v (nearest rank), 0 for an empty v.
func quantile[T time.Duration | float64](v []T, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return float64(s[min(len(s)-1, int(q*float64(len(s))))])
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := slices.Clone(v)
	slices.Sort(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}

// per is a/b, and 0 where the workload has no b to divide by.
func per[A, B int64 | uint64 | float64](a A, b B) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// opPerS is completed ops per second. Where the rounds replay Q it is the
// rate at which Q completes when every query takes its settled latency;
// elsewhere it is all timed ops over all timed time.
func (r *result) opPerS() float64 {
	if r.settled == nil {
		return per(float64(r.ops), r.wall.Seconds())
	}
	var ns float64
	for _, s := range r.settled {
		ns += s
	}
	return per(float64(len(r.settled))*1e9, ns)
}

// opP50us is the median op latency: over the queries' settled latencies
// where the rounds replay Q, over every timed op elsewhere.
func (r *result) opP50us() float64 {
	if r.settled == nil {
		return quantile(r.lat, 0.5) / 1e3
	}
	return median(r.settled) / 1e3
}

// endToEndMetrics computes the four user-visible metrics of a run.
func endToEndMetrics(r *result) map[string]float64 {
	return map[string]float64{
		"setup_s":                  median(r.setups),
		"op_per_s":                 r.opPerS(),
		"op_p50_us":                r.opP50us(),
		"disk_bytes_per_user_byte": per(r.diskBytes, r.userBytes),
	}
}

// ladder times the layers above the store on their own, on the same D and
// Q: curve evaluation, range planning, and the two baseline curves' cluster
// counts the paper compares the onion curve's with.
type ladder struct {
	indexNsPerPoint float64
	planNs          float64 // over all of Q
	clusters        int64   // over all of Q
	hilbert, zcurve int64
}

func runLadder(d *dataset) (ladder, error) {
	var l ladder
	c, err := onion.NewOnion2D(side)
	if err != nil {
		return l, err
	}
	const passes = 3
	var indexNs, planNs []float64
	for pass := 0; pass < passes; pass++ {
		start := time.Now()
		curveKeys(c, d)
		indexNs = append(indexNs, per(float64(time.Since(start)), int64(len(d.xs))))

		var plan []ranges.KeyRange
		l.clusters = 0
		start = time.Now()
		for _, rect := range d.rects {
			if plan, err = ranges.DecomposeAppend(c, rect, 0, plan); err != nil {
				return l, err
			}
			l.clusters += int64(len(plan))
		}
		planNs = append(planNs, float64(time.Since(start)))
	}
	l.indexNsPerPoint, l.planNs = median(indexNs), median(planNs)

	hilbert, err := onion.NewHilbert(2, side)
	if err != nil {
		return l, err
	}
	zcurve, err := onion.NewZCurve(2, side)
	if err != nil {
		return l, err
	}
	for _, rect := range d.rects {
		h, err := onion.ClusterCount(hilbert, rect)
		if err != nil {
			return l, err
		}
		z, err := onion.ClusterCount(zcurve, rect)
		if err != nil {
			return l, err
		}
		l.hilbert, l.zcurve = l.hilbert+int64(h), l.zcurve+int64(z)
	}
	return l, nil
}

// spanTotals is what the per-layer metrics need from a traced run's spans.
type spanTotals struct {
	count   [spanKinds]int64
	ns      [spanKinds]int64
	fsyncNs []float64
	rttNs   []float64
	// selfNs sums, over the query ops, the op's span minus its children:
	// the planner call and the reads made while it was in flight.
	selfNs int64
}

func totalSpans(spans []span) spanTotals {
	var t spanTotals
	var maxOp uint32
	for _, s := range spans {
		if s.kind == spanRead || s.kind == spanPlan {
			maxOp = max(maxOp, s.op)
		}
	}
	children := make([]int64, maxOp+1)
	for _, s := range spans {
		d := s.end - s.start
		t.count[s.kind]++
		t.ns[s.kind] += d
		switch s.kind {
		case spanFsync:
			t.fsyncNs = append(t.fsyncNs, float64(d))
		case spanReplAppend:
			t.rttNs = append(t.rttNs, float64(d))
		case spanRead, spanPlan:
			children[s.op] += d
		}
	}
	for _, s := range spans {
		if s.kind == spanOp && s.op <= maxOp {
			t.selfNs += s.end - s.start - children[s.op]
		}
	}
	return t
}

// delta is a counter's increase over the timed rounds.
func delta(snaps [2]telemetry.Snapshot, name string) uint64 {
	return snaps[1].Counter(name) - snaps[0].Counter(name)
}

// histDelta is the samples a histogram took during the timed rounds.
func histDelta(snaps [2]telemetry.Snapshot, name string) telemetry.HistogramSnapshot {
	after, before := snaps[1].Hist(name), snaps[0].Hist(name)
	if after == nil {
		return telemetry.HistogramSnapshot{}
	}
	d := *after
	if before != nil {
		d.Count -= before.Count
		d.Sum -= before.Sum
		for i := range d.Buckets {
			d.Buckets[i] -= before.Buckets[i]
		}
	}
	return d
}

func histQuantile(snaps [2]telemetry.Snapshot, name string, q float64) float64 {
	h := histDelta(snaps, name)
	return float64(h.Quantile(q))
}

// perLayerMetrics computes every per-layer metric from an untraced run u, a
// traced run t of the same workload and seed, and the ladder. Counts and
// the program's own telemetry come from u; what only the wrapped seams can
// see (vfs.*, repl.append*) and the self times come from t.
func perLayerMetrics(wl *workload, d *dataset, u, t *result, l ladder) map[string]float64 {
	sp := totalSpans(t.spans)
	queries := int64(len(d.rects))
	uWall, tWall := u.wall.Seconds(), t.wall.Seconds()
	// "kop" and "user byte" in write-side metrics are acked puts; on mixed
	// those are the writer's, while "op" is a query.
	uKPuts, tKPuts := float64(u.ackedPuts)/1e3, float64(t.ackedPuts)/1e3
	cacheHits := u.cache[1].Hits - u.cache[0].Hits
	cacheMisses := u.cache[1].Misses - u.cache[0].Misses
	acked := delta(u.ingest, "ingest_acked_total")
	m := map[string]float64{
		"core.index_ns_per_point":          l.indexNsPerPoint,
		"ranges.plan_ns_per_op":            per(l.planNs, queries),
		"ranges.clusters_per_op":           per(l.clusters, queries),
		"ranges.plan_ns_per_cluster":       per(l.planNs, l.clusters),
		"baseline.hilbert_clusters_per_op": per(l.hilbert, queries),
		"baseline.zcurve_clusters_per_op":  per(l.zcurve, queries),

		"pagedstore.seeks_per_op":                   per(u.q.seeks, u.q.ops),
		"pagedstore.pages_read_per_op":              per(u.q.pagesRead, u.q.ops),
		"pagedstore.scanned_per_result":             per(u.q.scanned, u.q.results),
		"pagedstore.pages_fetched_per_op":           per(u.q.fetched, u.q.ops),
		"pagedstore.cache_hit_ratio":                per(cacheHits, cacheHits+cacheMisses),
		"pagedstore.cache_evictions_per_op":         per(u.cache[1].Evictions-u.cache[0].Evictions, uint64(u.q.ops)),
		"pagedstore.cache_admission_rejects_per_op": per(u.cache[1].AdmissionRejects-u.cache[0].AdmissionRejects, uint64(u.q.ops)),
		"pagedstore.cache_off_op_p50_us":            u.cacheOffP50,

		"engine.query_self_ns_per_op":         per(sp.selfNs, t.q.ops),
		"engine.ns_per_seek":                  per(sp.selfNs+sp.ns[spanRead], t.q.seeks),
		"engine.mem_entries_per_op":           per(u.q.memEntries, u.q.ops),
		"engine.segments_per_op":              per(u.q.segments, u.q.ops),
		"engine.wal_fsyncs_per_kop":           per(float64(delta(u.tele, "engine_wal_fsyncs_total")), uKPuts),
		"engine.wal_bytes_per_user_byte":      per(delta(u.tele, "engine_wal_append_bytes_total"), uint64(u.ackedPuts*userBytes)),
		"engine.wal_fsync_p50_us":             histQuantile(u.tele, "engine_wal_fsync_us", 0.5),
		"engine.flushes":                      float64(delta(u.tele, "engine_flushes_total")),
		"engine.compactions":                  float64(delta(u.tele, "engine_compactions_total")),
		"engine.flush_busy_frac":              per(float64(histDelta(u.tele, "engine_flush_us").Sum)/1e6, uWall),
		"engine.compaction_busy_frac":         per(float64(histDelta(u.tele, "engine_compaction_us").Sum)/1e6, uWall),
		"engine.compaction_records_in_per_op": per(delta(u.tele, "engine_compaction_records_in_total"), uint64(u.ackedPuts)),

		"shard.shards_touched_per_op": per(u.q.shardsTouched, u.q.ops),
		"shard.subranges_per_op":      per(u.q.subRanges, u.q.ops),
		"shard.admission_wait_p50_us": histQuantile(u.tele, "router_admission_wait_us", 0.5),

		"ingest.ops_per_batch":       per(acked, delta(u.ingest, "ingest_batches_total")),
		"ingest.coalesced_per_kop":   per(float64(delta(u.ingest, "ingest_coalesced_total")), float64(acked)/1e3),
		"ingest.enqueue_wait_p50_us": histQuantile(u.ingest, "ingest_enqueue_wait_us", 0.5),
		"ingest.ack_p50_us":          histQuantile(u.ingest, "ingest_ack_latency_us", 0.5),
		"ingest.ack_p99_us":          histQuantile(u.ingest, "ingest_ack_latency_us", 0.99),
		"ingest.acked_per_s":         per(float64(u.ackedPuts), uWall),
		"ingest.late_p50_us":         quantile(u.late, 0.5) / 1e3,

		"repl.append_rtt_p50_us":     quantile(sp.rttNs, 0.5) / 1e3,
		"repl.appends_per_batch":     per(uint64(sp.count[spanReplAppend]), delta(t.tele, "repl_batches_total")),
		"repl.entries_per_append":    per(t.replEntries, sp.count[spanReplAppend]),
		"repl.quorum_latency_p50_us": histQuantile(u.tele, "repl_quorum_latency_us", 0.5),
		"repl.seeds":                 float64(u.tele[1].Counter("repl_seeds_total")),
		"repl.send_errors":           float64(delta(u.tele, "repl_send_errors_total")),
		"repl.follower_lag_end":      float64(u.lagEnd),

		"vfs.read_calls_per_op":         per(sp.count[spanRead], t.ops),
		"vfs.read_bytes_per_op":         per(t.vfsRead, t.ops),
		"vfs.read_ns_per_op":            per(sp.ns[spanRead], t.ops),
		"vfs.write_calls_per_kop":       per(float64(sp.count[spanWrite]), tKPuts),
		"vfs.write_bytes_per_user_byte": per(t.vfsWritten, t.ackedPuts*userBytes),
		"vfs.fsyncs_per_kop":            per(float64(sp.count[spanFsync]), tKPuts),
		"vfs.fsync_p50_us":              quantile(sp.fsyncNs, 0.5) / 1e3,
		"vfs.fsync_busy_frac":           per(float64(sp.ns[spanFsync])/1e9, tWall),

		"bench.op_per_s_raw":        median(u.roundOpPerS),
		"bench.op_p50_us_raw":       quantile(u.lat, 0.5) / 1e3,
		"bench.op_p99_us":           quantile(u.lat, 0.99) / 1e3,
		"bench.round_spread":        per(slices.Max(u.roundOpPerS)-slices.Min(u.roundOpPerS), median(u.roundOpPerS)),
		"bench.cpu_s_per_kop":       per(u.cpuSeconds, float64(u.ops)/1e3),
		"bench.allocs_per_op":       per(u.mallocs, uint64(u.ops)),
		"bench.rss_peak_mb":         peakRSSMB(),
		"bench.steal_frac":          u.stealFrac,
		"bench.trace_overhead_frac": 1 - per(t.opPerS(), u.opPerS()),
	}
	// The planner is the same function wherever it is called, so on the
	// read workloads the Planned each query reported must add up to the
	// ladder's count exactly.
	if wl.kind == kindRead && u.q.planned != l.clusters*int64(len(u.roundOpPerS)) {
		u.fail("Stats.Planned sums to %d over %d rounds, the planner alone gives %d a round", u.q.planned, len(u.roundOpPerS), l.clusters)
	}
	return m
}
