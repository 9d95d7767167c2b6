package telemetry

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if got := c.Load(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
	var f FloatGauge
	f.Set(1.5)
	if got := f.Load(); got != 1.5 {
		t.Fatalf("float gauge = %v, want 1.5", got)
	}
}

func TestHistogramBucketLayout(t *testing.T) {
	// Exact buckets for 0..3.
	for v := uint64(0); v < 4; v++ {
		if got := bucketIndex(v); got != int(v) {
			t.Fatalf("bucketIndex(%d) = %d, want %d", v, got, v)
		}
		if got := BucketBound(int(v)); got != v {
			t.Fatalf("BucketBound(%d) = %d, want %d", v, got, v)
		}
	}
	// Every value maps to a bucket whose bound is >= the value, and the
	// bound over-estimates by at most 25%.
	check := func(v uint64) {
		t.Helper()
		i := bucketIndex(v)
		if i < 0 || i >= HistBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		b := BucketBound(i)
		if b < v {
			t.Fatalf("BucketBound(bucketIndex(%d)) = %d < value", v, b)
		}
		if v >= 4 && float64(b) > float64(v)*1.25 {
			t.Fatalf("bound %d over-estimates %d by more than 25%%", b, v)
		}
	}
	for v := uint64(0); v < 4096; v++ {
		check(v)
	}
	for _, v := range []uint64{1 << 20, 1<<20 + 1, 1 << 40, 1<<63 - 1, 1 << 63, math.MaxUint64} {
		check(v)
	}
	// Bucket bounds are strictly increasing.
	for i := 1; i < HistBuckets; i++ {
		if BucketBound(i) <= BucketBound(i-1) {
			t.Fatalf("BucketBound(%d)=%d <= BucketBound(%d)=%d", i, BucketBound(i), i-1, BucketBound(i-1))
		}
	}
	if bucketIndex(math.MaxUint64) != HistBuckets-1 {
		t.Fatalf("max uint64 should land in the last bucket, got %d", bucketIndex(math.MaxUint64))
	}
}

func TestHistogramQuantiles(t *testing.T) {
	var h Histogram
	if q := h.Snapshot(); q.Quantile(0.5) != 0 || q.Count != 0 {
		t.Fatalf("empty histogram should report 0")
	}
	for v := uint64(1); v <= 1000; v++ {
		h.Record(v)
	}
	s := h.Snapshot()
	if s.Count != 1000 {
		t.Fatalf("count = %d, want 1000", s.Count)
	}
	if s.Sum != 500500 {
		t.Fatalf("sum = %d, want 500500", s.Sum)
	}
	p50 := s.Quantile(0.5)
	if p50 < 500 || float64(p50) > 500*1.25 {
		t.Fatalf("p50 = %d, want ~500 within 25%%", p50)
	}
	p999 := s.Quantile(0.999)
	if p999 < 999 || float64(p999) > 1000*1.25 {
		t.Fatalf("p999 = %d, want ~999..1250", p999)
	}
	if got := s.Quantile(0); got > 1 {
		t.Fatalf("p0 = %d, want <= 1", got)
	}
	if m := s.Mean(); math.Abs(m-500.5) > 1e-9 {
		t.Fatalf("mean = %v, want 500.5", m)
	}
}

func TestRegistrySnapshotSorted(t *testing.T) {
	r := NewRegistry()
	r.Counter("zzz_total").Add(1)
	r.GaugeFunc("aaa_gauge", func() int64 { return 5 })
	r.Histogram("mmm_hist").Record(10)
	r.FloatGauge("bbb_ratio").Set(2.5)
	r.CounterFunc("sampled_total", func() uint64 { return 99 })
	s := r.Snapshot()
	var names []string
	for _, m := range s.Metrics {
		names = append(names, m.Name)
	}
	want := []string{"aaa_gauge", "bbb_ratio", "mmm_hist", "sampled_total", "zzz_total"}
	if len(names) != len(want) {
		t.Fatalf("got %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("got %v, want %v", names, want)
		}
	}
	if s.Counter("sampled_total") != 99 {
		t.Fatalf("sampled counter = %d, want 99", s.Counter("sampled_total"))
	}
	if m, _ := s.Metric("bbb_ratio"); m.Float != 2.5 {
		t.Fatalf("float gauge = %v, want 2.5", m.Float)
	}
	// Re-requesting the same name returns the same metric.
	if r.Counter("zzz_total").Load() != 1 {
		t.Fatalf("counter identity lost")
	}
	// Kind clash panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("kind clash should panic")
			}
		}()
		r.GaugeFunc("zzz_total", func() int64 { return 0 })
	}()
}

func TestRegistryConcurrency(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const perG = 10000
	var writers, snapper sync.WaitGroup
	stop := make(chan struct{})
	// Snapshot continuously while recording.
	snapper.Add(1)
	go func() {
		defer snapper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				s := r.Snapshot()
				if h := s.Hist("lat_us"); h != nil {
					var n uint64
					for _, b := range h.Buckets {
						n += b
					}
					if n != h.Count {
						panic("snapshot count != bucket sum")
					}
				}
			}
		}
	}()
	for g := 0; g < goroutines; g++ {
		writers.Add(1)
		go func(seed int64) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(seed))
			c := r.Counter("ops_total")
			h := r.Histogram("lat_us")
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Record(uint64(rng.Intn(1 << 20)))
			}
		}(int64(g))
	}
	writers.Wait()
	close(stop)
	snapper.Wait()
	s := r.Snapshot()
	if got := s.Counter("ops_total"); got != goroutines*perG {
		t.Fatalf("ops_total = %d, want %d", got, goroutines*perG)
	}
	if h := s.Hist("lat_us"); h == nil || h.Count != goroutines*perG {
		t.Fatalf("lat_us count = %v, want %d", h, goroutines*perG)
	}
}

func TestMergeAssociativity(t *testing.T) {
	mk := func(seed int64) Snapshot {
		r := NewRegistry()
		rng := rand.New(rand.NewSource(seed))
		c := r.Counter("ops_total")
		var entries int64
		r.GaugeFunc("entries", func() int64 { return entries })
		f := r.FloatGauge("amp")
		h := r.Histogram("lat_us")
		for i := 0; i < 1000; i++ {
			c.Inc()
			entries += int64(rng.Intn(10))
			h.Record(uint64(rng.Intn(100000)))
		}
		f.Set(rng.Float64() * 4)
		return r.Snapshot()
	}
	a, b, c := mk(1), mk(2), mk(3)

	// Reference: everything recorded into metrics merged flat.
	flat := MergeMetrics(a, b, c)
	left := MergeMetrics(Snapshot{Metrics: MergeMetrics(a, b)}, c)
	right := MergeMetrics(a, Snapshot{Metrics: MergeMetrics(b, c)})

	equal := func(x, y []Metric) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if x[i].Name != y[i].Name || x[i].Kind != y[i].Kind ||
				x[i].Value != y[i].Value || x[i].Int != y[i].Int ||
				math.Abs(x[i].Float-y[i].Float) > 1e-12 {
				return false
			}
			if (x[i].Hist == nil) != (y[i].Hist == nil) {
				return false
			}
			if x[i].Hist != nil && *x[i].Hist != *y[i].Hist {
				return false
			}
		}
		return true
	}
	if !equal(flat, left) {
		t.Fatalf("merge not associative: flat != (a+b)+c")
	}
	if !equal(flat, right) {
		t.Fatalf("merge not associative: flat != a+(b+c)")
	}

	// The aggregate equals a single registry that saw all the samples.
	single := NewRegistry()
	for _, seed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(seed))
		c := single.Counter("ops_total")
		h := single.Histogram("lat_us")
		for i := 0; i < 1000; i++ {
			c.Inc()
			rng.Intn(10) // the gauge draw, kept so the streams match
			h.Record(uint64(rng.Intn(100000)))
		}
		_ = rng.Float64()
	}
	ref := single.Snapshot()
	merged := Snapshot{Metrics: flat}
	if merged.Counter("ops_total") != ref.Counter("ops_total") {
		t.Fatalf("rolled-up counter %d != single-registry reference %d",
			merged.Counter("ops_total"), ref.Counter("ops_total"))
	}
	mh, rh := merged.Hist("lat_us"), ref.Hist("lat_us")
	if mh == nil || rh == nil || *mh != *rh {
		t.Fatalf("rolled-up histogram != single-registry reference")
	}
}

func TestRollupLabels(t *testing.T) {
	mk := func(n uint64) Snapshot {
		r := NewRegistry()
		r.Counter("q_total").Add(n)
		r.Counter(`transitions_total{to="degraded"}`).Add(1)
		return r.Snapshot()
	}
	roll := Rollup("shard", []Snapshot{mk(3), mk(5)})
	if got := roll.Counter("q_total"); got != 8 {
		t.Fatalf("aggregate = %d, want 8", got)
	}
	if got := roll.Counter(`q_total{shard="0"}`); got != 3 {
		t.Fatalf("shard 0 = %d, want 3", got)
	}
	if got := roll.Counter(`q_total{shard="1"}`); got != 5 {
		t.Fatalf("shard 1 = %d, want 5", got)
	}
	// A label added to an already-labeled name merges into the braces.
	if got := roll.Counter(`transitions_total{to="degraded",shard="1"}`); got != 1 {
		t.Fatalf("labeled merge = %d, want 1", got)
	}
}

func TestRecordZeroAlloc(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total")
	f := r.FloatGauge("amp")
	h := r.Histogram("lat_us")
	allocs := testing.AllocsPerRun(1000, func() {
		c.Inc()
		c.Add(3)
		f.Set(1.25)
		h.Record(137)
	})
	if allocs != 0 {
		t.Fatalf("recording allocated %v allocs/op, want 0", allocs)
	}
}

func TestEventsRing(t *testing.T) {
	ev := NewEvents(4)
	for i := 0; i < 6; i++ {
		kind := EvFlush
		if i%2 == 1 {
			kind = EvCompaction
		}
		ev.Emit(Event{Kind: kind, Phase: PhaseStart, Shard: i})
	}
	got := ev.Recent(nil)
	if len(got) != 4 {
		t.Fatalf("ring retained %d, want 4", len(got))
	}
	// Oldest-first, and the oldest two rotated out.
	for i, e := range got {
		if e.Seq != uint64(i+3) {
			t.Fatalf("event %d seq = %d, want %d", i, e.Seq, i+3)
		}
		if e.Shard != i+2 {
			t.Fatalf("event %d shard = %d, want %d", i, e.Shard, i+2)
		}
	}
	if ev.InFlight(EvFlush) != 3 || ev.InFlight(EvCompaction) != 3 {
		t.Fatalf("inflight = %d/%d, want 3/3", ev.InFlight(EvFlush), ev.InFlight(EvCompaction))
	}
	ev.Emit(Event{Kind: EvFlush, Phase: PhaseEnd})
	if ev.InFlight(EvFlush) != 2 {
		t.Fatalf("inflight after end = %d, want 2", ev.InFlight(EvFlush))
	}
}

func TestEventTimeStamping(t *testing.T) {
	ev := NewEvents(0)
	before := time.Now()
	e := ev.Emit(Event{Kind: EvSnapshot, Phase: PhaseStart})
	if e.Time.Before(before) {
		t.Fatalf("emit did not stamp time")
	}
	fixed := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	e2 := ev.Emit(Event{Kind: EvSnapshot, Phase: PhaseEnd, Time: fixed})
	if !e2.Time.Equal(fixed) {
		t.Fatalf("emit overwrote preset time")
	}
	if e2.Seq != e.Seq+1 {
		t.Fatalf("sequence not increasing: %d then %d", e.Seq, e2.Seq)
	}
}

func TestWriteJSON(t *testing.T) {
	r := NewRegistry()
	r.Counter("ops_total").Add(12)
	r.GaugeFunc("depth", func() int64 { return -2 })
	r.FloatGauge("amp").Set(1.75)
	h := r.Histogram("lat_us")
	for i := 0; i < 100; i++ {
		h.Record(uint64(i))
	}
	s := r.Snapshot()
	s.Events = append(s.Events, Event{
		Seq: 1, Time: time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC),
		Kind: EvFlush, Phase: PhaseEnd, Shard: -1, Dur: 1500 * time.Microsecond,
		Records: 10, Detail: `say "hi"`,
	})
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var decoded struct {
		Metrics map[string]json.RawMessage `json:"metrics"`
		Events  []map[string]any           `json:"events"`
	}
	if err := json.Unmarshal(buf.Bytes(), &decoded); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if string(decoded.Metrics["ops_total"]) != "12" {
		t.Fatalf("ops_total = %s", decoded.Metrics["ops_total"])
	}
	var hist struct {
		Count uint64 `json:"count"`
		P99   uint64 `json:"p99"`
	}
	if err := json.Unmarshal(decoded.Metrics["lat_us"], &hist); err != nil {
		t.Fatalf("histogram JSON: %v", err)
	}
	if hist.Count != 100 {
		t.Fatalf("histogram count = %d, want 100", hist.Count)
	}
	if len(decoded.Events) != 1 || decoded.Events[0]["kind"] != "flush" {
		t.Fatalf("events = %v", decoded.Events)
	}
	if decoded.Events[0]["detail"] != `say "hi"` {
		t.Fatalf("detail escaping broken: %v", decoded.Events[0]["detail"])
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.Counter("engine_queries_total").Add(5)
	r.Counter(`engine_queries_total{shard="1"}`).Add(2)
	r.GaugeFunc("engine_segments", func() int64 { return 3 })
	h := r.Histogram(`engine_query_latency_us{shard="1"}`)
	h.Record(10)
	h.Record(200)
	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatalf("WritePrometheus: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE engine_queries_total counter",
		"engine_queries_total 5",
		`engine_queries_total{shard="1"} 2`,
		"# TYPE engine_segments gauge",
		"engine_segments 3",
		"# TYPE engine_query_latency_us histogram",
		`engine_query_latency_us_count{shard="1"} 2`,
		`engine_query_latency_us_bucket{shard="1",le="+Inf"} 2`,
		`engine_query_latency_us_sum{shard="1"} 210`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Exactly one TYPE line per base name.
	if strings.Count(out, "# TYPE engine_queries_total") != 1 {
		t.Fatalf("duplicate TYPE lines:\n%s", out)
	}
	// Bucket lines are cumulative: le bound for the second sample
	// includes the first.
	if !strings.Contains(out, `le="11"} 1`) {
		t.Fatalf("expected cumulative bucket for first sample:\n%s", out)
	}
}

func TestSortEventsByTime(t *testing.T) {
	t0 := time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)
	events := []Event{
		{Seq: 2, Time: t0.Add(2 * time.Second)},
		{Seq: 1, Time: t0.Add(time.Second)},
		{Seq: 3, Time: t0.Add(time.Second)},
	}
	SortEventsByTime(events)
	if events[0].Seq != 1 || events[1].Seq != 3 || events[2].Seq != 2 {
		t.Fatalf("sort order wrong: %+v", events)
	}
}
