package engine

import (
	"bytes"
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/telemetry"
)

// fill puts an n-point diagonal-ish grid so flushes and compactions have
// material to move.
func fillTelemetry(t *testing.T, e *Engine, salt uint32) {
	t.Helper()
	side := uint32(e.c.Universe().Side())
	for x := uint32(0); x < side; x += 2 {
		for y := salt % 2; y < side; y += 2 {
			if err := e.Put(geom.Point{x, (y + salt) % side}, uint64(x)<<8|uint64(y)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestEngineMaintenanceEventOrder drives the lifecycle flush -> compact
// -> snapshot and checks the event stream tells the same story in the
// same order, each phase properly bracketed with start before end and a
// clean outcome.
func TestEngineMaintenanceEventOrder(t *testing.T) {
	o, _ := core.NewOnion2D(16)
	e, err := Open(t.TempDir(), o, manualOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	fillTelemetry(t, e, 0)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	fillTelemetry(t, e, 1)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Snapshot(filepath.Join(t.TempDir(), "snap")); err != nil {
		t.Fatal(err)
	}

	evs := e.Events().Recent(nil)
	// first/last Seq per (kind, phase)
	type key struct {
		k telemetry.EventKind
		p telemetry.EventPhase
	}
	first := map[key]uint64{}
	last := map[key]uint64{}
	for _, ev := range evs {
		if ev.Err != "" {
			t.Errorf("event %v/%v carries error %q on a clean run", ev.Kind, ev.Phase, ev.Err)
		}
		k := key{ev.Kind, ev.Phase}
		if _, ok := first[k]; !ok {
			first[k] = ev.Seq
		}
		last[k] = ev.Seq
	}
	fs := key{telemetry.EvFlush, telemetry.PhaseStart}
	fe := key{telemetry.EvFlush, telemetry.PhaseEnd}
	cs := key{telemetry.EvCompaction, telemetry.PhaseStart}
	ce := key{telemetry.EvCompaction, telemetry.PhaseEnd}
	ss := key{telemetry.EvSnapshot, telemetry.PhaseStart}
	se := key{telemetry.EvSnapshot, telemetry.PhaseEnd}
	for _, k := range []key{fs, fe, cs, ce, ss, se} {
		if _, ok := first[k]; !ok {
			t.Fatalf("missing %v/%v event", k.k, k.p)
		}
	}
	if !(first[fs] < first[fe] && first[fe] < first[cs]) {
		t.Errorf("flush (start %d, end %d) not before compaction start %d", first[fs], first[fe], first[cs])
	}
	if !(first[cs] < first[ce] && last[ce] < first[ss]) {
		t.Errorf("compaction (start %d, end %d) not before snapshot start %d", first[cs], last[ce], first[ss])
	}
	if first[ss] >= first[se] {
		t.Errorf("snapshot start %d not before end %d", first[ss], first[se])
	}
	// Dur rides on the end events.
	for _, ev := range evs {
		if ev.Phase == telemetry.PhaseEnd && ev.Dur < 0 {
			t.Errorf("%v end event with negative duration", ev.Kind)
		}
	}
}

// TestEngineTelemetryExport checks the registry's export surface carries
// what the README promises: query metrics with histograms, WAL and cache
// counters, health state, in both exposition formats.
func TestEngineTelemetryExport(t *testing.T) {
	o, _ := core.NewOnion2D(16)
	opts := manualOpts()
	e, err := Open(t.TempDir(), o, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	// The engine never exports a cache; whoever builds one does.
	RegisterCacheTelemetry(e.Telemetry(), opts.Cache)

	fillTelemetry(t, e, 0)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, _, err := e.Query(o.Universe().Rect()); err != nil {
			t.Fatal(err)
		}
	}

	snap := e.TelemetrySnapshot()
	if got := snap.Counter("engine_queries_total"); got != 5 {
		t.Errorf("engine_queries_total = %d, want 5", got)
	}
	if h := snap.Hist("engine_query_latency_us"); h == nil || h.Count != 5 {
		t.Errorf("engine_query_latency_us count = %v, want 5", h)
	}
	if snap.Counter("engine_wal_appends_total") == 0 {
		t.Error("engine_wal_appends_total is 0 after puts")
	}
	if _, ok := snap.Metric("cache_hits_total"); !ok {
		t.Error("registered cache not exported")
	}
	if m, ok := snap.Metric("engine_health_state"); !ok || m.Int != int64(Healthy) {
		t.Errorf("engine_health_state = %+v, want healthy gauge", m)
	}

	var prom bytes.Buffer
	if err := snap.WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"# TYPE engine_query_latency_us histogram",
		"engine_query_latency_us_bucket",
		"engine_query_latency_us_count 5",
		"engine_queries_total 5",
		"# TYPE engine_wal_group_commit_batch histogram",
		"cache_hits_total",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("Prometheus output missing %q", want)
		}
	}
	var js bytes.Buffer
	if err := snap.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"engine_queries_total": 5`, `"engine_query_latency_us": {"count": 5`, `"events": [`} {
		if !strings.Contains(js.String(), want) {
			t.Errorf("JSON output missing %q", want)
		}
	}
}

// TestEngineSeekAmplification pins the seek-amplification gauge: on a
// flushed, compacted single-segment engine a rectangle query pays
// exactly one seek per planned cluster range, so the ratio is 1.
func TestEngineSeekAmplification(t *testing.T) {
	o, _ := core.NewOnion2D(16)
	e, err := Open(t.TempDir(), o, manualOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	fillTelemetry(t, e, 0)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	if _, _, err := e.Query(o.Universe().Rect()); err != nil {
		t.Fatal(err)
	}
	m, ok := e.TelemetrySnapshot().Metric("engine_query_seek_amplification")
	if !ok {
		t.Fatal("seek amplification gauge missing")
	}
	if m.Float != 1.0 {
		t.Errorf("seek amplification = %v on a compacted engine, want 1.0", m.Float)
	}
}

// TestEngineQueryErrorsCountedOnce: a rectangle the planner rejects and a
// pre-planned range list rejected with ErrRanges are the same kind of
// event — a query refused before it touched a source — and each bumps
// engine_query_errors_total exactly once, with no served-query sample.
func TestEngineQueryErrorsCountedOnce(t *testing.T) {
	o, _ := core.NewOnion2D(16)
	e, err := Open(t.TempDir(), o, manualOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	outside := geom.Rect{Lo: geom.Point{0, 0}, Hi: geom.Point{16, 16}}
	if _, _, err := e.Query(outside); err == nil {
		t.Fatal("rectangle beyond the universe accepted")
	}
	snap := e.TelemetrySnapshot()
	if got := snap.Counter("engine_query_errors_total"); got != 1 {
		t.Errorf("after a planner rejection: engine_query_errors_total = %d, want 1", got)
	}
	inverted := []curve.KeyRange{{Lo: 5, Hi: 4}}
	if _, _, err := e.QueryRanges(context.Background(), nil, inverted); !errors.Is(err, ErrRanges) {
		t.Fatalf("inverted plan: err %v, want ErrRanges", err)
	}
	snap = e.TelemetrySnapshot()
	if got := snap.Counter("engine_query_errors_total"); got != 2 {
		t.Errorf("after an ErrRanges rejection: engine_query_errors_total = %d, want 2", got)
	}
	if got := snap.Counter("engine_queries_total"); got != 0 {
		t.Errorf("engine_queries_total = %d after two rejected queries, want 0", got)
	}
	if h := snap.Hist("engine_query_latency_us"); h != nil && h.Count != 0 {
		t.Errorf("rejected queries left %d latency samples", h.Count)
	}
}

// TestEngineMemtableSearchCounters pins the occupancy filter's telemetry
// on one memtable that holds keys in only one range of a five-range
// plan: one search and four skips. An engine whose memtable is empty
// leaves it out of the query altogether, searching and skipping nothing.
func TestEngineMemtableSearchCounters(t *testing.T) {
	o, _ := core.NewOnion2D(16)
	e, err := Open(t.TempDir(), o, manualOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	plan := []curve.KeyRange{{Lo: 0, Hi: 9}, {Lo: 50, Hi: 59}, {Lo: 100, Hi: 109}, {Lo: 150, Hi: 159}, {Lo: 200, Hi: 209}}
	check := func(when string, searches, skips uint64) {
		t.Helper()
		snap := e.TelemetrySnapshot()
		if got := snap.Counter("engine_memtable_searches_total"); got != searches {
			t.Errorf("%s: engine_memtable_searches_total = %d, want %d", when, got, searches)
		}
		if got := snap.Counter("engine_memtable_searches_skipped_total"); got != skips {
			t.Errorf("%s: engine_memtable_searches_skipped_total = %d, want %d", when, got, skips)
		}
	}
	if _, _, err := e.QueryRanges(context.Background(), nil, plan); err != nil {
		t.Fatal(err)
	}
	check("empty memtable", 0, 0)
	for _, k := range []uint64{100, 104, 109} {
		if err := e.Put(o.Coords(k, nil), k); err != nil {
			t.Fatal(err)
		}
	}
	recs, _, err := e.QueryRanges(context.Background(), nil, plan)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("%d records, want 3", len(recs))
	}
	check("keys in one range of five", 1, 4)
}

// TestEngineRangesDrainedCounter pins engine_ranges_drained_total: a range
// whose one source is a segment drains page by page and counts once; a
// range the memtable may hold merges and does not count. On one segment
// with an empty memtable all five ranges of a plan drain; with a key of
// one of them in the memtable, four do, and the records are the merge's.
func TestEngineRangesDrainedCounter(t *testing.T) {
	o, _ := core.NewOnion2D(16)
	e, err := Open(t.TempDir(), o, manualOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	plan := []curve.KeyRange{{Lo: 0, Hi: 9}, {Lo: 50, Hi: 59}, {Lo: 100, Hi: 109}, {Lo: 150, Hi: 159}, {Lo: 200, Hi: 209}}
	for _, kr := range plan {
		for k := kr.Lo; k <= kr.Hi; k += 2 {
			if err := e.Put(o.Coords(k, nil), k); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	drained := func() uint64 { return e.TelemetrySnapshot().Counter("engine_ranges_drained_total") }
	recs, _, err := e.QueryRanges(context.Background(), nil, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := drained(); got != 5 || len(recs) != 25 {
		t.Fatalf("one segment, empty memtable: %d records, %d ranges drained; want 25 and 5", len(recs), got)
	}
	if err := e.Put(o.Coords(104, nil), 1104); err != nil { // overwrites a segment record
		t.Fatal(err)
	}
	if err := e.Put(o.Coords(105, nil), 105); err != nil { // new
		t.Fatal(err)
	}
	recs, st, err := e.QueryRanges(context.Background(), nil, plan)
	if err != nil {
		t.Fatal(err)
	}
	if got := drained() - 5; got != 4 || len(recs) != 26 || st.MemEntries != 2 {
		t.Fatalf("a memtable key in one range: %d records (%d from the memtable), %d ranges drained; want 26 (2) and 4",
			len(recs), st.MemEntries, got)
	}
	for _, r := range recs {
		if k := o.Index(r.Point); (k == 104 && r.Payload != 1104) || (k != 104 && r.Payload != k) {
			t.Fatalf("key %d served payload %d", k, r.Payload)
		}
	}
}
