// Package telemetry is a dependency-free metrics layer for the engine.
//
// Design constraints, in priority order:
//
//  1. Recording on the hot path is allocation-free and lock-free:
//     Counter, FloatGauge and Histogram record with plain atomic
//     operations on preallocated memory; integer gauges are sampled at
//     snapshot time (GaugeFunc). No maps, no interface boxing,
//     no time formatting.
//  2. Snapshots are mergeable: a service-level view of N per-shard
//     registries is MergeMetrics/Rollup over their snapshots, and the
//     merge is associative, so any grouping of shards produces the same
//     aggregate.
//  3. Export is boring: expvar-style JSON and Prometheus text
//     exposition, both derived from the same stable-sorted Snapshot.
//
// Metric names may carry Prometheus-style labels inline, e.g.
// `engine_health_transitions_total{to="degraded"}`. The exporters split
// the base name from the label set; the registry treats the full string
// as the identity of the series.
package telemetry

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing uint64. The zero value is ready
// to use.
type Counter struct {
	v atomic.Uint64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Load returns the current value.
func (c *Counter) Load() uint64 { return c.v.Load() }

// FloatGauge is a settable float64 value stored as atomic bits. The
// zero value is ready to use and reads as 0.
type FloatGauge struct {
	bits atomic.Uint64
}

// Set replaces the value.
func (g *FloatGauge) Set(v float64) { g.bits.Store(floatBits(v)) }

// Load returns the current value.
func (g *FloatGauge) Load() float64 { return floatFromBits(g.bits.Load()) }

// Kind identifies the type of a metric in a Snapshot.
type Kind uint8

const (
	KindCounter Kind = iota
	KindGauge
	KindFloatGauge
	KindHistogram
)

func (k Kind) String() string {
	switch k {
	case KindCounter:
		return "counter"
	case KindGauge:
		return "gauge"
	case KindFloatGauge:
		return "float_gauge"
	case KindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Metric is one exported series in a Snapshot. Exactly one of the value
// fields is meaningful, selected by Kind.
type Metric struct {
	Name  string // full series name, possibly with inline {labels}
	Kind  Kind
	Value uint64             // KindCounter
	Int   int64              // KindGauge
	Float float64            // KindFloatGauge
	Hist  *HistogramSnapshot // KindHistogram
}

// registered is one live metric inside a Registry.
type registered struct {
	kind Kind
	c    *Counter
	f    *FloatGauge
	h    *Histogram
	cf   func() uint64 // sampled counter, read at snapshot time
	gf   func() int64  // sampled gauge, read at snapshot time
}

// Registry is a named collection of metrics. Lookup/registration takes
// a mutex; the returned metric handles record without any locking, so
// callers should resolve handles once at startup and hold on to them.
type Registry struct {
	mu      sync.Mutex
	metrics map[string]*registered
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{metrics: make(map[string]*registered)}
}

func (r *Registry) getOrCreate(name string, kind Kind) *registered {
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.metrics[name]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("telemetry: metric %q registered as %s, requested as %s", name, m.kind, kind))
		}
		return m
	}
	m := &registered{kind: kind}
	switch kind {
	case KindCounter:
		m.c = &Counter{}
	case KindFloatGauge:
		m.f = &FloatGauge{}
	case KindHistogram:
		m.h = &Histogram{}
	}
	r.metrics[name] = m
	return m
}

// Counter returns the counter with the given name, creating it if
// needed. Panics if the name is already registered with another kind.
func (r *Registry) Counter(name string) *Counter { return r.getOrCreate(name, KindCounter).c }

// FloatGauge returns the float gauge with the given name, creating it
// if needed.
func (r *Registry) FloatGauge(name string) *FloatGauge { return r.getOrCreate(name, KindFloatGauge).f }

// Histogram returns the histogram with the given name, creating it if
// needed.
func (r *Registry) Histogram(name string) *Histogram { return r.getOrCreate(name, KindHistogram).h }

// CounterFunc registers a counter whose value is sampled by fn at
// snapshot time. Useful for exposing counters maintained elsewhere
// (e.g. page-cache hit totals) without double bookkeeping. fn must be
// safe for concurrent use.
func (r *Registry) CounterFunc(name string, fn func() uint64) {
	m := r.getOrCreate(name, KindCounter)
	r.mu.Lock()
	m.cf = fn
	r.mu.Unlock()
}

// GaugeFunc registers a gauge sampled by fn at snapshot time.
func (r *Registry) GaugeFunc(name string, fn func() int64) {
	m := r.getOrCreate(name, KindGauge)
	r.mu.Lock()
	m.gf = fn
	r.mu.Unlock()
}

// Snapshot returns a point-in-time copy of every metric, sorted by
// name. Counters and histograms observed mid-update may be off by the
// in-flight operations; each individual value is atomically read.
func (r *Registry) Snapshot() Snapshot {
	r.mu.Lock()
	names := make([]string, 0, len(r.metrics))
	regs := make([]*registered, 0, len(r.metrics))
	for name := range r.metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		regs = append(regs, r.metrics[name])
	}
	r.mu.Unlock()

	out := make([]Metric, 0, len(names))
	for i, m := range regs {
		mt := Metric{Name: names[i], Kind: m.kind}
		switch m.kind {
		case KindCounter:
			if m.cf != nil {
				mt.Value = m.cf()
			} else {
				mt.Value = m.c.Load()
			}
		case KindGauge:
			if m.gf != nil {
				mt.Int = m.gf()
			}
		case KindFloatGauge:
			mt.Float = m.f.Load()
		case KindHistogram:
			hs := m.h.Snapshot()
			mt.Hist = &hs
		}
		out = append(out, mt)
	}
	return Snapshot{Metrics: out}
}

// Snapshot is an immutable view of a registry (and optionally the
// recent maintenance events attached by the caller). Metrics are sorted
// by name.
type Snapshot struct {
	Metrics []Metric
	Events  []Event
}

// Metric returns the named series from the snapshot, if present.
func (s Snapshot) Metric(name string) (Metric, bool) {
	i := sort.Search(len(s.Metrics), func(i int) bool { return s.Metrics[i].Name >= name })
	if i < len(s.Metrics) && s.Metrics[i].Name == name {
		return s.Metrics[i], true
	}
	// Fall back to a linear scan in case the snapshot was assembled by
	// hand and is not sorted.
	for _, m := range s.Metrics {
		if m.Name == name {
			return m, true
		}
	}
	return Metric{}, false
}

// Counter returns the value of the named counter, or 0 if absent.
func (s Snapshot) Counter(name string) uint64 {
	m, ok := s.Metric(name)
	if !ok || m.Kind != KindCounter {
		return 0
	}
	return m.Value
}

// Hist returns the named histogram snapshot, or nil if absent.
func (s Snapshot) Hist(name string) *HistogramSnapshot {
	m, ok := s.Metric(name)
	if !ok || m.Kind != KindHistogram {
		return nil
	}
	return m.Hist
}

// MergeMetrics element-wise combines the metrics of several snapshots
// into one sorted slice: counters and histograms sum, integer gauges
// sum, and float gauges average (the only generic choice for ratio
// gauges like seek amplification; per-source truth is preserved by
// Rollup's labeled copies). Series present in only some snapshots are
// carried through. The operation is associative for counters, gauges
// and histograms: merging A with (B merged with C) equals merging
// (A merged with B) with C.
func MergeMetrics(snaps ...Snapshot) []Metric {
	type acc struct {
		m Metric
		// Float gauges average over the number of sources that carried
		// the series; track the weight so the mean is grouping
		// independent.
		fsum    float64
		fweight float64
	}
	byName := make(map[string]*acc)
	order := make([]string, 0)
	for _, s := range snaps {
		for _, m := range s.Metrics {
			a, ok := byName[m.Name]
			if !ok {
				a = &acc{m: Metric{Name: m.Name, Kind: m.Kind}}
				if m.Kind == KindHistogram {
					a.m.Hist = &HistogramSnapshot{}
				}
				byName[m.Name] = a
				order = append(order, m.Name)
			}
			if a.m.Kind != m.Kind {
				continue // kind clash: first registration wins
			}
			switch m.Kind {
			case KindCounter:
				a.m.Value += m.Value
			case KindGauge:
				a.m.Int += m.Int
			case KindFloatGauge:
				a.fsum += m.Float * m.weightOf()
				a.fweight += m.weightOf()
			case KindHistogram:
				if m.Hist != nil {
					a.m.Hist.Merge(m.Hist)
				}
			}
		}
	}
	sort.Strings(order)
	out := make([]Metric, 0, len(order))
	for _, name := range order {
		a := byName[name]
		if a.m.Kind == KindFloatGauge && a.fweight > 0 {
			a.m.Float = a.fsum / a.fweight
			a.m.Value = uint64(a.fweight) // carry the weight for re-merging
		}
		out = append(out, a.m)
	}
	return out
}

// weightOf returns the number of underlying sources a float-gauge
// metric represents: 1 for a raw registry snapshot, or the carried
// weight for an already-merged aggregate. This keeps MergeMetrics
// associative for float-gauge means.
func (m Metric) weightOf() float64 {
	if m.Kind == KindFloatGauge && m.Value > 0 {
		return float64(m.Value)
	}
	return 1
}

// Rollup merges per-source snapshots into one service-level snapshot:
// each series appears once as the cross-source aggregate and once per
// source with an added label, e.g. Rollup("shard", snaps) turns
// `engine_queries_total` from source 2 into
// `engine_queries_total{shard="2"}` alongside the unlabeled sum.
// Events are not merged; attach them separately.
func Rollup(labelKey string, snaps []Snapshot) Snapshot {
	out := MergeMetrics(snaps...)
	for i, s := range snaps {
		val := fmt.Sprintf("%d", i)
		for _, m := range s.Metrics {
			lm := m
			lm.Name = WithLabel(m.Name, labelKey, val)
			out = append(out, lm)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return Snapshot{Metrics: out}
}

// WithLabel returns the series name with an added label, inserting into
// an existing label set if the name already carries one.
func WithLabel(name, key, value string) string {
	pair := key + `="` + value + `"`
	if strings.HasSuffix(name, "}") {
		return name[:len(name)-1] + "," + pair + "}"
	}
	return name + "{" + pair + "}"
}

// splitName separates a series name into its base name and the inline
// label body (without braces); lbl is "" when the name has no labels.
func splitName(name string) (base, lbl string) {
	i := strings.IndexByte(name, '{')
	if i < 0 {
		return name, ""
	}
	base = name[:i]
	lbl = strings.TrimSuffix(name[i+1:], "}")
	return base, lbl
}
