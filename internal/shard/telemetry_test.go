package shard

import (
	"bytes"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/telemetry"
)

// putGrid puts every even-coordinate point of a side x side universe.
func putGrid(t *testing.T, s *Sharded, side uint32) {
	t.Helper()
	for x := uint32(0); x < side; x += 2 {
		for y := uint32(0); y < side; y += 2 {
			if err := s.Put(geom.Point{x, y}, uint64(x)<<8|uint64(y)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestShardedTelemetryRollup drives a two-shard store through writes,
// queries and the full maintenance lifecycle, then checks the roll-up
// contract: every aggregate equals the sum (or merge) of its per-shard
// labeled copies, the shared cache is exported exactly once, and the
// merged event stream is time-ordered with Shard rewritten.
func TestShardedTelemetryRollup(t *testing.T) {
	c, err := core.NewOnion2D(32)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	s, err := Open(dir, c, manualShardOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	putGrid(t, s, 32)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for x := uint32(1); x < 32; x += 4 {
		if err := s.Put(geom.Point{x, x}, uint64(x)); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot(filepath.Join(t.TempDir(), "snap")); err != nil {
		t.Fatal(err)
	}
	var qst Stats
	for i := 0; i < 8; i++ {
		if _, qst, err = s.Query(geom.Rect{Lo: geom.Point{0, 0}, Hi: geom.Point{31, 31}}); err != nil {
			t.Fatal(err)
		}
	}

	snap := s.TelemetrySnapshot()

	// Counter roll-up: aggregate == sum of labeled per-shard copies, and
	// the underlying activity actually happened.
	for _, name := range []string{
		"engine_flushes_total", "engine_compactions_total",
		"engine_wal_appends_total", "engine_queries_total",
		"engine_query_records_scanned_total",
		"engine_verify_passes_total", "engine_snapshots_total",
	} {
		agg := snap.Counter(name)
		sum := snap.Counter(telemetry.WithLabel(name, "shard", "0")) +
			snap.Counter(telemetry.WithLabel(name, "shard", "1"))
		if agg == 0 {
			t.Errorf("%s: aggregate is 0, expected activity", name)
		}
		if agg != sum {
			t.Errorf("%s: aggregate %d != per-shard sum %d", name, agg, sum)
		}
	}

	// The scanned counter is the Stats field, summed: eight identical
	// queries of a store nothing wrote to in between.
	if got := snap.Counter("engine_query_records_scanned_total"); got != 8*uint64(qst.RecordsScanned) {
		t.Errorf("engine_query_records_scanned_total = %d, want 8 x %d", got, qst.RecordsScanned)
	}

	// Histogram roll-up: merged count and sum equal the per-shard totals.
	aggH := snap.Hist("engine_query_latency_us")
	if aggH == nil {
		t.Fatal("missing engine_query_latency_us aggregate")
	}
	h0 := snap.Hist(`engine_query_latency_us{shard="0"}`)
	h1 := snap.Hist(`engine_query_latency_us{shard="1"}`)
	if h0 == nil || h1 == nil {
		t.Fatal("missing per-shard latency histograms")
	}
	if aggH.Count != h0.Count+h1.Count || aggH.Sum != h0.Sum+h1.Sum {
		t.Errorf("latency roll-up: count %d vs %d+%d, sum %d vs %d+%d",
			aggH.Count, h0.Count, h1.Count, aggH.Sum, h0.Sum, h1.Sum)
	}

	// The shared page cache belongs to the router: exported once, never
	// multiplied through the per-shard roll-up.
	if _, ok := snap.Metric("cache_hits_total"); !ok {
		t.Error("shared cache_hits_total missing from router registry")
	}
	if _, ok := snap.Metric(`cache_hits_total{shard="0"}`); ok {
		t.Error("shared cache exported per-shard: roll-up would double-count it")
	}
	if snap.Counter("cache_hits_total")+snap.Counter("cache_misses_total") == 0 {
		t.Error("cache counters flat after cached queries")
	}

	// Router-level series exist and saw the traffic.
	if got := snap.Counter("router_queries_total"); got < 8 {
		t.Errorf("router_queries_total = %d, want >= 8", got)
	}
	if h := snap.Hist("router_fanout_shards"); h == nil || h.Count == 0 {
		t.Error("router_fanout_shards histogram empty")
	}
	// The paper's number lives in the router: the shard engines execute
	// pre-planned sub-ranges, so their own planned-ranges and
	// seek-amplification series stay dark and the router, which knows
	// Planned, records them per query.
	if h := snap.Hist("router_planned_ranges"); h == nil || h.Count != 8 || h.Sum != 8*uint64(qst.Planned) {
		t.Errorf("router_planned_ranges = %+v, want 8 samples of %d", h, qst.Planned)
	}
	if m, ok := snap.Metric("router_seek_amplification"); !ok || m.Float != float64(qst.Seeks)/float64(qst.Planned) {
		t.Errorf("router_seek_amplification = %+v, want %d seeks / %d planned", m, qst.Seeks, qst.Planned)
	}
	if h := snap.Hist("engine_query_planned_ranges"); h != nil && h.Count != 0 {
		t.Errorf("engine_query_planned_ranges has %d samples under the router, want none", h.Count)
	}

	// Event merge: Shard rewritten to the owning index, time-ordered, and
	// the lifecycle left at least one flush, compaction and scrub event.
	if len(snap.Events) == 0 {
		t.Fatal("merged event stream is empty")
	}
	seen := map[telemetry.EventKind]bool{}
	for i, ev := range snap.Events {
		if ev.Shard < 0 || ev.Shard >= 2 {
			t.Fatalf("event %d: Shard = %d, want 0 or 1", i, ev.Shard)
		}
		if i > 0 && ev.Time.Before(snap.Events[i-1].Time) {
			t.Fatalf("event %d out of time order", i)
		}
		seen[ev.Kind] = true
	}
	for _, k := range []telemetry.EventKind{telemetry.EvFlush, telemetry.EvCompaction, telemetry.EvScrub, telemetry.EvSnapshot} {
		if !seen[k] {
			t.Errorf("no %s event in merged stream", k)
		}
	}

	// The exporters accept the roll-up: labeled series render as valid
	// Prometheus text (one TYPE line per base name) and JSON.
	var prom bytes.Buffer
	if err := snap.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	out := prom.String()
	if !strings.Contains(out, `engine_flushes_total{shard="0"}`) {
		t.Error("Prometheus output missing labeled per-shard series")
	}
	if got := strings.Count(out, "# TYPE engine_flushes_total "); got != 1 {
		t.Errorf("TYPE line for engine_flushes_total appears %d times, want 1", got)
	}
	var js bytes.Buffer
	if err := snap.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(js.String(), "router_queries_total") {
		t.Error("JSON output missing router series")
	}
}

// TestRouterSeekAmplification pins the router's gauge to the engine's:
// a one-shard store is the unpartitioned engine, so on the flushed,
// compacted dataset of the engine package's TestEngineSeekAmplification
// a rectangle query pays exactly one seek per planned cluster range.
func TestRouterSeekAmplification(t *testing.T) {
	c, err := core.NewOnion2D(16)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(t.TempDir(), c, manualShardOpts(1))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	putGrid(t, s, 16)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Query(c.Universe().Rect()); err != nil {
		t.Fatal(err)
	}
	m, ok := s.TelemetrySnapshot().Metric("router_seek_amplification")
	if !ok {
		t.Fatal("router seek amplification gauge missing")
	}
	if m.Float != 1.0 {
		t.Errorf("router seek amplification = %v on a compacted one-shard store, want 1.0", m.Float)
	}
	// Recording is atomics on preallocated handles: the two new series
	// add nothing to the cached query path's allocation count.
	st := Stats{Stats: engine.Stats{Planned: 3}}
	st.Seeks = 4
	if n := testing.AllocsPerRun(100, func() { s.rtel.recordQuery(time.Now(), &st) }); n != 0 {
		t.Errorf("routerTelemetry.recordQuery allocates %v times per query, want 0", n)
	}
}

// TestShardedQueryCountedOnce: one sharded query is one router query and
// one engine query on each shard it touched — nothing is counted twice
// on the way down, and untouched shards see nothing.
func TestShardedQueryCountedOnce(t *testing.T) {
	c, err := core.NewOnion2D(32)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(t.TempDir(), c, manualShardOpts(4))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	putGrid(t, s, 32)
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	shardQueries := func(snap telemetry.Snapshot, i int) uint64 {
		return snap.Counter(telemetry.WithLabel("engine_queries_total", "shard", strconv.Itoa(i)))
	}
	for _, r := range []geom.Rect{
		{Lo: geom.Point{0, 0}, Hi: geom.Point{31, 31}},   // every shard
		{Lo: geom.Point{14, 14}, Hi: geom.Point{17, 17}}, // the innermost rings only
	} {
		before := s.TelemetrySnapshot()
		_, st, err := s.Query(r)
		if err != nil {
			t.Fatal(err)
		}
		after := s.TelemetrySnapshot()
		if d := after.Counter("router_queries_total") - before.Counter("router_queries_total"); d != 1 {
			t.Errorf("%v: router_queries_total +%d, want +1", r, d)
		}
		touched := map[int]bool{}
		for _, ps := range st.PerShard {
			touched[ps.Shard] = true
		}
		for i := 0; i < 4; i++ {
			want := uint64(0)
			if touched[i] {
				want = 1
			}
			if d := shardQueries(after, i) - shardQueries(before, i); d != want {
				t.Errorf("%v: shard %d engine_queries_total +%d, want +%d", r, i, d, want)
			}
		}
		if d := after.Counter("engine_queries_total") - before.Counter("engine_queries_total"); d != uint64(st.ShardsTouched) {
			t.Errorf("%v: aggregate engine_queries_total +%d, want +%d (shards touched)", r, d, st.ShardsTouched)
		}
		if d := after.Counter("engine_query_errors_total") - before.Counter("engine_query_errors_total"); d != 0 {
			t.Errorf("%v: engine_query_errors_total +%d on a served query", r, d)
		}
	}
}
