// Package onion implements the onion curve — a space filling curve with
// near-optimal clustering (Xu, Nguyen, Tirthapura, ICDE 2018) — together
// with the classic baseline curves (Hilbert, Z/Morton, Gray-code,
// row/column-major, snake), exact clustering-number analysis, rectangle
// range decomposition, the paper's theoretical bounds, and an
// SFC-clustered spatial store: a file laid out in curve order, and the
// mutable, sharded, replicated engine built from such files.
//
// # Curves
//
// A Curve is a bijection between the cells of a d-dimensional grid and the
// key range [0, side^d):
//
//	o, _ := onion.NewOnion2D(1024)
//	key := o.Index(onion.Point{3, 5})
//	cell := o.Coords(key, nil)
//
// The onion curve orders cells by increasing L-infinity distance to the
// grid boundary ("layers"), which provably yields near-optimal clustering
// for cube and near-cube range queries: at most 2.32x the optimum in 2D
// and 3.4x in 3D, whereas the Hilbert curve can be Omega(sqrt(n)) from
// optimal.
//
// # Clustering analysis
//
// ClusterCount returns the number of contiguous key runs a rectangle maps
// to (the paper's clustering number = disk seeks needed to retrieve it);
// Decompose returns the runs themselves; AverageClustering computes the
// exact average over all translates of a query shape.
//
// # Storage
//
// WriteStore lays records out in a file clustered by any Curve, and
// OpenStore serves it; OpenEngine is the mutable counterpart, whose
// segments are such files. A rectangle query reads one page run per
// cluster and reports the seeks and pages it actually read.
package onion

import (
	"sort"

	"github.com/onioncurve/onion/internal/baseline"
	"github.com/onioncurve/onion/internal/cluster"
	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/ingest"
	"github.com/onioncurve/onion/internal/metrics"
	"github.com/onioncurve/onion/internal/pagedstore"
	"github.com/onioncurve/onion/internal/partition"
	"github.com/onioncurve/onion/internal/ranges"
	"github.com/onioncurve/onion/internal/repl"
	"github.com/onioncurve/onion/internal/shard"
	"github.com/onioncurve/onion/internal/stats"
	"github.com/onioncurve/onion/internal/telemetry"
	"github.com/onioncurve/onion/internal/theory"
	"github.com/onioncurve/onion/internal/viz"
)

// Core geometry and curve types, re-exported from the implementation
// packages.
type (
	// Curve is a space filling curve: a bijection between grid cells
	// and the key range [0, Size()).
	Curve = curve.Curve
	// Point is a cell coordinate vector.
	Point = geom.Point
	// Rect is an axis-aligned box of cells with inclusive bounds.
	Rect = geom.Rect
	// Universe is the d-dimensional grid a curve fills.
	Universe = geom.Universe
	// KeyRange is an inclusive range of curve keys; a query's minimal
	// KeyRanges are its clusters.
	KeyRange = ranges.KeyRange
	// RangePlanner is the output-sensitive decomposition capability: a
	// Curve additionally implementing it (every curve in this package
	// does, except Peano) decomposes and counts rectangle queries
	// analytically, in time proportional to the output rather than the
	// query surface. Custom Curve implementations can provide it to opt
	// into the same fast path in Decompose, ClusterCount, stores and
	// engines.
	RangePlanner = curve.RangePlanner
	// MergeResult is the outcome of merging ranges under a seek budget.
	MergeResult = ranges.MergeResult
	// Summary is a five-number summary plus mean (box-plot statistics).
	Summary = stats.Summary
	// Partitioner splits a curve's key space into contiguous shards.
	Partitioner = partition.Partitioner
	// Spread describes the key-space layout of a query's clusters (the
	// inter-cluster distance metric the paper's conclusion defers).
	Spread = metrics.Spread
	// StretchStats summarizes grid distance at fixed curve distance.
	StretchStats = metrics.StretchStats
	// Record is one point + payload of a disk-backed clustered store.
	Record = pagedstore.Record
	// Store is an open disk-backed clustered table.
	Store = pagedstore.Store
	// StoreStats is the logical access pattern of a Store query: seeks,
	// pages and records, whatever the cache and the read grouping did.
	StoreStats = pagedstore.Stats
	// StoreCursor streams the records of a plan — ascending key ranges,
	// handed over once with Plan and walked with NextRange — out of a
	// Store with the same seek/page accounting as Store.Query; the
	// storage engine drives one per live segment.
	StoreCursor = pagedstore.Cursor
	// PageCache is a shared page cache for Stores and Engine segments:
	// immutable page images under one byte budget with clock eviction,
	// shareable across any number of stores, engines and shards. It
	// changes only physical I/O (StoreIOStats) — the logical Stats
	// contracts hold bit-identically with caching on or off.
	PageCache = pagedstore.Cache
	// PageCacheStats summarizes a PageCache: hits, misses, evictions,
	// resident pages/bytes and the configured budget.
	PageCacheStats = pagedstore.CacheStats
	// StoreIOStats is the physical I/O a query actually performed after
	// the cache and the segment pruning footer absorbed their share:
	// pages fetched from disk, the positioned reads that fetched them, and
	// visits served from cache.
	StoreIOStats = pagedstore.IOStats
	// Engine is the mutable LSM-style spatial storage engine: WAL +
	// curve-ordered memtable + immutable clustered segments, opened with
	// OpenEngine.
	Engine = engine.Engine
	// EngineOptions tunes OpenEngine (page size, flush threshold, WAL
	// sync policy, page cache — a NewPageCache, nil for none). The zero
	// value selects sensible defaults. Size-tiered compaction, at a
	// fanout of 4, follows each automatic flush; a negative FlushEntries
	// turns both off and leaves Flush and Compact to the caller.
	EngineOptions = engine.Options
	// EngineQueryStats is the physical access pattern of one Engine
	// query: pagedstore-style seeks/pages/records summed over the live
	// segments, plus memtable and planning counters.
	EngineQueryStats = engine.Stats
	// EngineStats is a point-in-time summary of an Engine's shape
	// (memtable entries, segments, WAL bytes, flush/compaction counts).
	EngineStats = engine.EngineStats
	// ShardedEngine is the horizontally partitioned query service:
	// N independent Engines over contiguous curve-key intervals behind a
	// query router that runs on the caller's goroutine, opened with
	// OpenShardedEngine.
	ShardedEngine = shard.Sharded
	// ShardedEngineOptions tunes OpenShardedEngine (shard count,
	// per-shard engine options, the shared page cache budget, the
	// filesystem). The zero value selects sensible defaults.
	ShardedEngineOptions = shard.Options
	// ShardedQueryStats is the aggregated physical access pattern of one
	// sharded query: per-shard engine counters summed under the
	// documented stat-aggregation contract, plus the router's fan-out
	// shape and the per-shard breakdown.
	ShardedQueryStats = shard.Stats
	// ShardQueryStats is one shard's contribution to a sharded query.
	ShardQueryStats = shard.ShardStats
	// ShardedEngineStats summarizes a sharded engine's shape: per-shard
	// engine summaries plus totals.
	ShardedEngineStats = shard.EngineStats
	// EngineHealth is an Engine's monotonic degradation state: Healthy,
	// Degraded (a segment was quarantined or compaction keeps failing),
	// ReadOnly (the write path is compromised; queries keep serving) or
	// Failed (a fault could not be contained).
	EngineHealth = engine.Health
	// VerifyReport summarizes one Engine.Verify scrub pass: segments
	// checked and any quarantined as corrupt, with the curve-key
	// interval each quarantine takes out of service.
	VerifyReport = engine.VerifyReport
	// QuarantinedSegment describes one corrupt segment pulled from
	// service: where its file went and the key interval no longer
	// served.
	QuarantinedSegment = engine.QuarantinedSegment
	// ShardHealth is one shard's degradation state within a
	// ShardedEngine.
	ShardHealth = shard.ShardHealth
	// ShardedQueryPolicy selects how a sharded query treats shards that
	// cannot answer: the zero value is strict (any shard failure fails
	// the query); Partial serves what the healthy shards can and
	// reports the gap in ShardedQueryStats.Degraded/FailedShards.
	ShardedQueryPolicy = shard.QueryPolicy
	// EngineSnapshotReport summarizes one Engine.Snapshot or
	// Engine.SnapshotSince export: the snapshot epoch and how many
	// segment files were copied, hardlinked or reused from the parent.
	EngineSnapshotReport = engine.SnapshotReport
	// EngineRestoreReport summarizes one RestoreEngine run: segments
	// materialized from the snapshot chain and archived-WAL records
	// replayed past the snapshot boundary.
	EngineRestoreReport = engine.RestoreReport
	// EngineRepairReport summarizes one Engine.Repair pass over the
	// quarantine: files repaired, records salvaged from CRC-clean pages,
	// records back-filled from the snapshot, and the engine's resulting
	// health.
	EngineRepairReport = engine.RepairReport
	// ShardedSnapshotReport summarizes one ShardedEngine.Snapshot
	// composite export: the epoch, per-shard engine reports and totals.
	ShardedSnapshotReport = shard.SnapshotReport
	// EngineBatchOp is one logical write inside Engine.PutBatch: a put of
	// (Point, Payload) or, with Del set, a blind tombstone at Point. The
	// whole batch rides one WAL fsync.
	EngineBatchOp = engine.BatchOp
	// IngestPipeline is the asynchronous write front-end: one queue per
	// shard whose submitter coalesces ops (last-write-wins per key, curve
	// order per batch) into PutBatch calls, with a bounded in-flight
	// budget for backpressure and per-op completion handles. Build one with NewIngest (single engine) or
	// ShardedEngine.NewIngest (one stripe per shard). See the README's
	// "Async ingest" section for the ack-durability contract.
	IngestPipeline = ingest.Pipeline
	// IngestConfig configures an IngestPipeline. It has no exported
	// fields: the in-flight budget (8 192 ops, the memory bound and
	// backpressure threshold) and the batch cap (1 024 ops) are fixed.
	IngestConfig = ingest.Config
	// IngestHandle is the completion side of one asynchronously enqueued
	// op: Wait blocks until the op's batch durably commits or fails.
	IngestHandle = ingest.Handle
	// TelemetryRegistry is a process-local metric registry: atomic
	// counters and gauges plus lock-free log-scale histograms, recorded
	// allocation-free on the hot path and exported as stable-sorted
	// snapshots. Engine.Telemetry and ShardedEngine.Telemetry return the
	// storage stack's registries; see the README's Observability section
	// for the metric name contract.
	TelemetryRegistry = telemetry.Registry
	// TelemetrySnapshot is a point-in-time export of a registry (plus any
	// attached maintenance events): render it with WriteJSON (expvar-style)
	// or WritePrometheus (text exposition format).
	TelemetrySnapshot = telemetry.Snapshot
	// TelemetryMetric is one exported series of a TelemetrySnapshot.
	TelemetryMetric = telemetry.Metric
	// TelemetryHistogram is a mergeable fixed-bucket log-scale histogram
	// snapshot (<= 25% relative bucket error) with quantile estimation.
	TelemetryHistogram = telemetry.HistogramSnapshot
	// MaintenanceEvent is one lifecycle event of the storage stack's
	// background machinery: flush, compaction, snapshot, restore, repair,
	// scrub or health transition, with start/end phases and outcome.
	MaintenanceEvent = telemetry.Event
	// MaintenanceEvents is a bounded in-memory ring of
	// MaintenanceEvents; Engine.Events returns the engine's stream.
	MaintenanceEvents = telemetry.Events
	// MaintenanceEventKind discriminates MaintenanceEvent kinds.
	MaintenanceEventKind = telemetry.EventKind
	// ReplGroup is a replication leader: an Engine whose WAL ships to a
	// set of followers with quorum acknowledgment. Open one with
	// LeadReplicated, or promote a follower with PromoteReplica.
	ReplGroup = repl.Group
	// ReplConfig tunes a ReplGroup: peer ids, transport and starting
	// epoch. LeadReplicated opens the leader engine on the default
	// engine options, and PromoteReplica reopens the follower's engine on
	// the follower's own options. The quorum is not an option: it is the
	// majority of the group, leader included; nor is the resend window
	// (the newest entries holding 16 384 ops; an entry is one write
	// batch, and the seed is refreshed every 16 384 entries), nor the
	// retry shape of a failed quorum round (2 ms backoff doubling to
	// 20 ms, three rounds, then ErrQuorum).
	ReplConfig = repl.Config
	// ReplFollower is the replica side: it persists shipped entries in a
	// CRC-framed replication log and applies the quorum-committed prefix
	// to its engine. Open one with OpenReplFollower.
	ReplFollower = repl.Follower
	// ReplFollowerOptions tunes an OpenReplFollower call.
	ReplFollowerOptions = repl.FollowerOptions
	// ReplTransport routes replication requests to followers by peer id;
	// NewReplLoopback serves in-process replica sets, an RPC transport is
	// the planned other half of the distributed tier.
	ReplTransport = repl.Transport
	// ReplicatedShardedEngine is a ShardedEngine whose every shard is a
	// replication leader; open one with OpenReplicatedShardedEngine.
	ReplicatedShardedEngine = shard.Replicated
)

// Engine health states (see EngineHealth).
const (
	EngineHealthy  = engine.Healthy
	EngineDegraded = engine.Degraded
	EngineReadOnly = engine.ReadOnly
	EngineFailed   = engine.Failed
)

// Maintenance event kinds (see MaintenanceEvent).
const (
	EventFlush      = telemetry.EvFlush
	EventCompaction = telemetry.EvCompaction
	EventSnapshot   = telemetry.EvSnapshot
	EventRestore    = telemetry.EvRestore
	EventRepair     = telemetry.EvRepair
	EventScrub      = telemetry.EvScrub
	EventHealth     = telemetry.EvHealth
)

// Sentinel errors of the storage stack, for errors.Is checks at the
// serving layer.
var (
	// ErrShardManifest reports a sharded engine directory opened with a
	// shard count or curve different from the one it was created with.
	ErrShardManifest = shard.ErrManifest
	// ErrReadOnly reports a write rejected because its engine (or the
	// shard owning the written key) degraded to ReadOnly after a WAL
	// failure or ENOSPC; the driving cause stays on the error chain.
	ErrReadOnly = engine.ErrReadOnly
	// ErrCorrupt reports on-disk corruption detected by a checksum:
	// queries touching a damaged page return it, and the background
	// scrub quarantines the segment so later queries stop seeing it.
	ErrCorrupt = engine.ErrCorrupt
	// ErrSnapshot reports a malformed, missing or mismatched Engine
	// snapshot: an interrupted export (no manifest), a snapshot of a
	// different store, or a broken parent chain.
	ErrSnapshot = engine.ErrSnapshot
	// ErrShardedSnapshot is ErrSnapshot's composite counterpart for
	// ShardedEngine snapshots.
	ErrShardedSnapshot = shard.ErrSnapshot
	// ErrIngestBackpressure reports a non-blocking ingest enqueue rejected
	// because the ring is full: the pipeline sheds load instead of growing
	// its memory footprint. Retry, drop, or use the blocking form.
	ErrIngestBackpressure = ingest.ErrBackpressure
	// ErrIngestClosed reports an ingest enqueue after the pipeline closed.
	ErrIngestClosed = ingest.ErrClosed
	// ErrQuorum reports a replicated write that could not reach a durable
	// quorum: the batch is refused, the engine latches read-only (reads
	// keep serving), and ReplGroup.TryRecover re-arms writes once a
	// quorum of followers is reachable again.
	ErrQuorum = engine.ErrQuorum
	// ErrReplFenced reports a deposed leader: a newer epoch exists and
	// this node must rejoin as a follower.
	ErrReplFenced = repl.ErrFenced
)

// NewIngest builds and starts an asynchronous ingest pipeline over a
// single engine: ops enqueue into one bounded queue, its submitter
// coalesces them, and each batch rides one WAL fsync through
// Engine.PutBatch. It is how durable writes from many producers share
// fsyncs: the engine has one writer at a time, so concurrent synchronous
// Put callers each pay their own. Close the pipeline before closing the
// engine. For a
// ShardedEngine use its NewIngest method, which stripes batches per
// shard.
func NewIngest(e *Engine, cfg IngestConfig) (*IngestPipeline, error) {
	return ingest.NewEngine(e, cfg)
}

// NewUniverse validates and constructs a dims-dimensional grid of
// side^dims cells.
func NewUniverse(dims int, side uint32) (Universe, error) {
	return geom.NewUniverse(dims, side)
}

// NewRect validates inclusive bounds lo <= hi.
func NewRect(lo, hi Point) (Rect, error) { return geom.NewRect(lo, hi) }

// RectAt builds the rectangle with lower corner lo and the given side
// lengths.
func RectAt(lo Point, shape []uint32) (Rect, error) { return geom.RectAt(lo, shape) }

// NewOnion2D returns the paper's two-dimensional onion curve (Section
// III-A) on a side x side grid; any side >= 1.
func NewOnion2D(side uint32) (Curve, error) { return core.NewOnion2D(side) }

// NewOnion3D returns the paper's three-dimensional onion curve (Section
// VI-A); the side must be even.
func NewOnion3D(side uint32) (Curve, error) { return core.NewOnion3D(side) }

// NewOnion3DWithSegmentOrder returns a 3D onion curve visiting the ten
// within-layer segments in a custom order (the paper proves any
// permutation preserves the clustering guarantees).
func NewOnion3DWithSegmentOrder(side uint32, perm [10]int) (Curve, error) {
	return core.NewOnion3DWithSegmentOrder(side, perm)
}

// NewOnionND returns the layer-sequential d-dimensional onion extension
// sketched in the paper's future work. Note: it keeps layer ordering but
// not the within-segment structure, and measurably weaker clustering
// constants come with that (see the package's ablation experiment).
func NewOnionND(dims int, side uint32) (Curve, error) { return core.NewOnionND(dims, side) }

// NewLayerLex returns the layer-lexicographic ablation curve.
func NewLayerLex(dims int, side uint32) (Curve, error) { return core.NewLayerLex(dims, side) }

// NewHilbert returns the d-dimensional Hilbert curve (d >= 2, side a power
// of two) — the paper's principal baseline.
func NewHilbert(dims int, side uint32) (Curve, error) { return baseline.NewHilbert(dims, side) }

// NewZCurve returns the Z (Morton, bit-interleaving) curve; side must be a
// power of two.
func NewZCurve(dims int, side uint32) (Curve, error) { return baseline.NewMorton(dims, side) }

// NewGrayCode returns the Gray-code curve of Faloutsos; side must be a
// power of two.
func NewGrayCode(dims int, side uint32) (Curve, error) { return baseline.NewGray(dims, side) }

// NewRowMajor returns the row-major order (dimension 0 fastest).
func NewRowMajor(dims int, side uint32) (Curve, error) { return baseline.NewRowMajor(dims, side) }

// NewColumnMajor returns the column-major order (dimension d-1 fastest).
func NewColumnMajor(dims int, side uint32) (Curve, error) {
	return baseline.NewColumnMajor(dims, side)
}

// NewSnake returns the boustrophedon order — the simplest continuous
// curve, useful as a lower-bound control.
func NewSnake(dims int, side uint32) (Curve, error) { return baseline.NewSnake(dims, side) }

// NewPeano returns the d-dimensional Peano (serpentine) curve; side must
// be a power of three.
func NewPeano(dims int, side uint32) (Curve, error) { return baseline.NewPeano(dims, side) }

// IsContinuous reports whether consecutive positions of the curve are
// always grid neighbors (the paper's Definition 1).
func IsContinuous(c Curve) bool { return curve.IsContinuous(c) }

// Walker enumerates a curve's cells in key order with amortized O(1)
// incremental stepping (onion family, Z, Gray, linear orders) instead of a
// full inverse-mapping evaluation per key. Whole-curve sweeps — clustering
// analytics, jump scans, visualizations — should walk, not call Coords in
// a loop.
type Walker = curve.Walker

// NewWalker returns a Walker over c positioned at key start (start may be
// anywhere in [0, Size()]; Size() yields an exhausted walker). Curves with
// specialized incremental walkers provide them transparently; every other
// curve gets a generic fallback with the same contract.
func NewWalker(c Curve, start uint64) Walker { return curve.NewWalker(c, start) }

// IndexBatch maps pts[i] to dst[i] = c.Index(pts[i]). Passing a dst of
// length len(pts) fills it in place with zero allocations; otherwise a
// fresh slice is returned. Per-curve batch fast paths skip the per-call
// interface dispatch of the scalar mapping.
func IndexBatch(c Curve, pts []Point, dst []uint64) []uint64 {
	return curve.IndexBatch(c, pts, dst)
}

// CoordsBatch maps keys[i] to dst[i], the inverse of IndexBatch. A dst of
// the right length whose points have the universe's dimensionality is
// reused with zero allocations.
func CoordsBatch(c Curve, keys []uint64, dst []Point) []Point {
	return curve.CoordsBatch(c, keys, dst)
}

// ClusterCount returns the clustering number of r under c: the minimum
// number of contiguous key runs covering exactly the cells of r. The
// cheapest correct strategy is chosen per curve:
//
//   - onion family, Hilbert, Z, Gray and linear orders: an analytic
//     output-sensitive planner — per-layer ring/segment intersection or
//     prefix-tree descent — in O(layers + clusters) (onion) or
//     O(clusters * log side) (prefix trees), with zero per-cell curve
//     evaluations; paper-scale queries (10^8+ cells) count in
//     microseconds.
//   - other continuous curves (e.g. Peano): the Lemma 1 boundary method,
//     O(surface(r)) batched curve evaluations sharded across CPUs.
//   - other almost-continuous curves: the boundary method plus one check
//     per enumerated jump.
//   - anything else: cell enumeration + sort, O(|r| log |r|), subject to
//     the sorted cell budget.
func ClusterCount(c Curve, r Rect) (uint64, error) {
	return cluster.Count(c, r)
}

// AverageClustering returns the exact average clustering number of c over
// the query set of all translates of the given shape (Lemma 1 + a
// generalization of Lemma 2), sweeping the curve's edges once.
//
// The sweep is parallel: the edge range is sharded across GOMAXPROCS
// workers, each driving its own incremental Walker (or, for curves with
// straight-run structure such as the onion and linear orders, closed-form
// per-run summation). Determinism is guaranteed: all partial sums are
// exact 128-bit integers, so the returned float64 is bit-identical across
// runs, worker counts and GOMAXPROCS settings — parallelism never changes
// the result.
func AverageClustering(c Curve, shape []uint32) (float64, error) {
	return cluster.AverageExact(c, shape)
}

// Decompose returns the minimal contiguous key ranges covering exactly the
// cells of r, sorted ascending; len(result) equals ClusterCount. The
// strategy mirrors ClusterCount — analytic planners for the onion family
// and the prefix-tree curves (output-sensitive, no per-cell evaluations),
// the batched boundary sweep for other continuous or almost-continuous
// curves (O(surface(r))), and sorted enumeration as the last resort — and
// every strategy returns bit-identical ranges.
func Decompose(c Curve, r Rect) ([]KeyRange, error) {
	return ranges.Decompose(c, r, 0)
}

// MergeToBudget coalesces ranges (closing smallest gaps first) until at
// most budget remain — fewer seeks for some extra cells scanned.
func MergeToBudget(rs []KeyRange, budget int) (MergeResult, error) {
	return ranges.MergeToBudget(rs, budget)
}

// LowerBoundContinuous returns the exact Theorem 2 lower bound: no
// continuous SFC can average fewer clusters over all translates of the
// shape.
func LowerBoundContinuous(u Universe, shape []uint32) (float64, error) {
	return theory.LowerBoundContinuous(u, shape)
}

// LowerBoundGeneral returns the exact Theorem 3 lower bound valid for
// every SFC.
func LowerBoundGeneral(u Universe, shape []uint32) (float64, error) {
	return theory.LowerBoundGeneral(u, shape)
}

// OnionCubeRatio2D returns the paper's Table I headline: the maximum
// approximation ratio of the 2D onion curve over cube query sets (2.32)
// and the maximizing cube scale phi.
func OnionCubeRatio2D() (phi, eta float64) { return theory.MaxEtaOnion2DCube() }

// OnionCubeRatio3D returns the 3D analogue (3.4 at phi = 0.3967).
func OnionCubeRatio3D() (phi, eta float64) { return theory.MaxEtaOnion3DCube() }

// UniformPartition splits c's key space into k equal shards.
func UniformPartition(c Curve, k int) (*Partitioner, error) { return partition.Uniform(c, k) }

// WeightedPartition splits c's key space into k shards balanced over the
// given sample of keys.
func WeightedPartition(c Curve, keys []uint64, k int) (*Partitioner, error) {
	return partition.ByWeight(c, keys, k)
}

// WriteStore bulk-loads records into a disk file physically clustered in
// curve order; pageBytes is the page size (for example 4096). The file is
// the same checksummed, fence-pruned layout the engine's
// segments use: a flipped byte surfaces as ErrCorrupt at OpenStore or at
// the first read of the damaged page, never as a wrong record.
func WriteStore(path string, c Curve, recs []Record, pageBytes int) error {
	return pagedstore.Write(path, c, recs, pageBytes)
}

// OpenStore opens a clustered store written by WriteStore; the curve must
// match the one used at write time. A Store is safe for concurrent
// readers: all file access is positioned (pread) and per-query state
// lives in per-call cursors.
func OpenStore(path string, c Curve) (*Store, error) { return pagedstore.Open(path, c) }

// NewPageCache returns a shared page cache with the given byte budget.
// Pass it to OpenStoreCached, EngineOptions.Cache, or size one per
// sharded engine with ShardedEngineOptions.CacheBytes.
func NewPageCache(budgetBytes int64) *PageCache { return pagedstore.NewCache(budgetBytes) }

// OpenStoreCached is OpenStore backed by a shared page cache: logical
// page visits resident in the cache are served from memory, misses
// populate it, and the store's pages are dropped from the cache on
// Close. The logical query Stats are bit-identical to an uncached open;
// only the physical I/O changes.
func OpenStoreCached(path string, c Curve, cache *PageCache) (*Store, error) {
	return pagedstore.OpenCached(path, c, cache)
}

// OpenEngine opens (creating if needed) a mutable spatial storage engine
// rooted at dir and clustered by c: the read-write counterpart of
// WriteStore/OpenStore for workloads that ingest while they serve.
//
// Writes (Put/Delete) are acknowledged after landing in a CRC-framed
// write-ahead log and a curve-key-ordered memtable, one writer at a time;
// memtables flush into immutable curve-ordered segment files
// (the pagedstore layout), and size-tiered background compaction merges
// segments and garbage-collects deletions. Crash recovery replays the
// log, keeping exactly the acknowledged prefix and dropping a torn tail.
//
// Query plans each rectangle with one RangePlanner call and streams a
// k-way merge of memtable + segments per cluster range, so the paper's
// clustering number remains the number of seeks the query pays — on a
// fully flushed and compacted engine the seek stats are bit-identical to
// a fresh Store of the same records. All Engine methods
// (Put, Delete, Query, Flush, Compact, Sync, Stats, Close) are safe for
// concurrent use.
func OpenEngine(dir string, c Curve, opts EngineOptions) (*Engine, error) {
	return engine.Open(dir, c, opts)
}

// OpenShardedEngine opens (creating if needed) a horizontally sharded
// engine rooted at dir: the curve's key space is split into
// Options.Shards contiguous intervals and each is served by an
// independent Engine in its own subdirectory — per-shard WAL, memtable,
// segments, flush and compaction — so durability and crash recovery
// compose shard by shard, and a crash damages at most the shards it
// interrupted. The shard count and curve identity are recorded in a
// manifest and verified on reopen.
//
// Writes route by curve key to exactly one shard. Query plans each
// rectangle ONCE with the curve's RangePlanner, splits the resulting
// cluster ranges at shard boundaries, sends them only to the shards
// whose key intervals they intersect — a plan inside one shard runs on
// the caller's goroutine, a plan spanning shards runs them concurrently
// — and merges the per-shard streams. Because shard boundaries are
// curve-key intervals, the concatenated result is globally key-sorted
// and bit-identical to a single Engine holding the same records; the
// stat aggregation contract is documented on ShardedQueryStats. All
// methods are safe for concurrent use.
func OpenShardedEngine(dir string, c Curve, opts ShardedEngineOptions) (*ShardedEngine, error) {
	return shard.Open(dir, c, opts)
}

// LeadReplicated opens an engine at dir as a replication leader: every
// write's WAL ops tee into a replication log shipped to cfg.Peers,
// and a synchronous write acknowledges only once a quorum (leader
// included) holds it durably — so an acknowledged Put means "fsynced on
// a majority". Losing quorum degrades, never corrupts: writes fail with
// ErrQuorum, the engine latches read-only, and ReplGroup.TryRecover
// re-arms once peers are reachable. A directory that already led an
// epoch refuses to lead again — rejoin it as a follower (its divergent
// suffix is shed by a snapshot re-seed) and promote a clean replica.
// The leader engine runs on the default EngineOptions; a replicated
// service with tuned engines is OpenReplicatedShardedEngine.
func LeadReplicated(dir string, c Curve, cfg ReplConfig) (*ReplGroup, error) {
	return repl.Lead(dir, c, cfg)
}

// OpenReplFollower opens (creating or rejoining) a follower replica.
// Register it on the transport under id so the leader can reach it. A
// follower's engine keeps no WAL archive — it deletes every WAL it
// retires, even after a snapshot of it, and such a snapshot restores to
// its own boundary only — so point-in-time restore past a snapshot is
// served from the leader's directory, not a follower's. A seed from the
// leader restores to its own boundary too: the leader's resend window
// carries every entry past it, so seeding reads nothing of the leader's
// directory but the seed and starts no archive there.
func OpenReplFollower(id, dir string, c Curve, opts ReplFollowerOptions) (*ReplFollower, error) {
	return repl.OpenFollower(id, dir, c, opts)
}

// NewReplLoopback builds the in-process replication transport: followers
// register under their peer id, leaders send by id. Wrap it in a
// fault-injecting transport (internal to the repl tests) or use it
// directly for single-process replica sets.
func NewReplLoopback() *repl.Loopback { return repl.NewLoopback() }

// ReplQuorumWatermark computes the highest log index guaranteed to
// contain every quorum-acknowledged entry, given the last indices of the
// reachable followers — the truncation point for PromoteReplica.
func ReplQuorumWatermark(lasts []uint64, quorum int) uint64 {
	return repl.QuorumWatermark(lasts, quorum)
}

// PromoteReplica turns a follower into the leader of a new epoch:
// its log is truncated to upTo (a ReplQuorumWatermark), fully applied,
// and the node restarts as a leader whose history lets surviving
// followers catch up by resend. The engine reopens on the follower's
// own ReplFollowerOptions.Engine — same filesystem, cache and page
// size — with the commit hook installed (so synchronous writes) and
// archiving back on. The follower is consumed. Failover is
// externally driven: the caller picks the reachable follower with the
// longest log, which by quorum intersection holds every acknowledged
// entry.
func PromoteReplica(f *ReplFollower, upTo uint64, cfg ReplConfig) (*ReplGroup, error) {
	return repl.Promote(f, upTo, cfg)
}

// OpenReplicatedShardedEngine opens a sharded engine with per-shard
// replication: shard i's engine leads the replica set cfg(i) describes.
// Replication degrades shard by shard — a shard that loses quorum
// latches read-only while the others keep accepting writes.
func OpenReplicatedShardedEngine(dir string, c Curve, opts ShardedEngineOptions, cfg func(shard int) ReplConfig) (*ReplicatedShardedEngine, error) {
	return shard.OpenReplicated(dir, c, opts, cfg)
}

// RestoreEngine materializes a fresh engine directory at targetDir from
// the snapshot at snapshotDir (written by Engine.Snapshot or
// Engine.SnapshotSince) plus the source engine's archived WALs — the
// point-in-time restore path.
//
// The snapshot's segments are copied (or hardlinked), then every
// archived WAL the segment set does not already cover is replayed in
// acknowledgement order and the first upTo replayed records are folded
// into one extra segment: upTo < 0 restores to latest, upTo == 0
// restores the snapshot boundary alone, and any value in between is a
// point-in-time boundary — record j of the replay stream is the j-th
// write acknowledged after the snapshot's flush point. The source engine
// archives every WAL it retires from its first snapshot on and keeps
// them all; a WAL retired before that is deleted, since the segments of
// every snapshot already cover it. Two kinds of snapshot name no archive
// and restore to their own boundary whatever upTo is: a snapshot of a
// replication follower's engine, which never archives, and a leader's
// catch-up seed, which does not start the leader's archive.
//
// targetDir must not exist; the build is staged in a sibling directory
// renamed into place last, so a crash or failure leaves targetDir absent
// or complete — never a half-built engine — and never modifies the
// snapshot or the source. Only the last step, the fsync of targetDir's
// parent after the rename, can fail with targetDir complete: it is then
// an engine whose durability failed, and a retry is refused because it
// exists. Open the result with OpenEngine and the same curve.
func RestoreEngine(snapshotDir, targetDir string, upTo int, c Curve, opts EngineOptions) (EngineRestoreReport, error) {
	return engine.Restore(snapshotDir, targetDir, upTo, c, opts)
}

// RestoreShardedEngine is RestoreEngine's composite counterpart: it
// validates the epoch-stamped manifest a ShardedEngine.Snapshot wrote,
// restores every shard independently (upTo bounds the replayed records
// PER SHARD; upTo < 0 restores to latest), stamps the directory
// manifest, and commits the whole tree with one atomic rename. Open the
// result with OpenShardedEngine, the same curve and the same shard
// count.
func RestoreShardedEngine(snapshotDir, targetDir string, upTo int, c Curve, opts ShardedEngineOptions) ([]EngineRestoreReport, error) {
	return shard.Restore(snapshotDir, targetDir, upTo, c, opts)
}

// SortPoints orders points in place by their curve keys — the clustered
// layout a bulk loader should write so that range queries read
// sequentially. Points must belong to the curve's universe. Keys are
// computed through the batch forward mapping.
func SortPoints(c Curve, pts []Point) {
	keys := curve.IndexBatch(c, pts, make([]uint64, len(pts)))
	sort.Sort(&pointSorter{keys: keys, pts: pts})
}

type pointSorter struct {
	keys []uint64
	pts  []Point
}

func (s *pointSorter) Len() int           { return len(s.keys) }
func (s *pointSorter) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *pointSorter) Swap(i, j int) {
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
	s.pts[i], s.pts[j] = s.pts[j], s.pts[i]
}

// ClusterSpread measures how far apart in key space a query's clusters
// are — few clusters can still be expensive to fetch if they are distant.
func ClusterSpread(c Curve, r Rect) (Spread, error) { return metrics.ClusterSpread(c, r) }

// Stretch samples the L1 grid distance between cells k apart along the
// curve (Gotsman-Lindenbaum stretch; relevant to near-neighbor search).
func Stretch(c Curve, k uint64, samples int, seed int64) (StretchStats, error) {
	return metrics.Stretch(c, k, samples, seed)
}

// DrawCurve renders the curve's position numbers on a small 2D grid
// (Figure 3 style).
func DrawCurve(c Curve) (string, error) { return viz.CurveGrid(c) }

// DrawQuery renders a query's clusters as letters on a small 2D grid
// (Figure 1/2 style) and returns the picture and the cluster count.
func DrawQuery(c Curve, r Rect) (string, int, error) { return viz.QueryClusters(c, r) }

// DrawCurveSlices renders a small 3D curve as per-z slices of position
// numbers (Figure 4 style).
func DrawCurveSlices(c Curve) (string, error) { return viz.CurveSlices(c) }
