// Package shard is the horizontally partitioned query service built on
// the storage engine: it splits a curve's key space into contiguous
// intervals with an internal/partition Uniform partitioner and runs one
// independent engine.Engine per interval — per-shard WAL, memtable,
// segments, flush and compaction — so durability and crash recovery
// compose shard by shard from the engine's guarantees.
//
// Writes route by curve key to exactly one shard. A rectangle query is
// planned exactly once with the curve's RangePlanner; the resulting
// cluster ranges are split at shard boundaries and sent only to the
// shards whose key intervals they intersect, and the per-shard record
// streams and physical stats are aggregated. A query is one loop on the
// caller's goroutine: the touched shards run one after another, in shard
// order, each appending straight into the caller's slice. Few cluster
// ranges means few shards (94.5 % of the benchmark's query-hot queries
// touch one), so the 5.5 % that span shards give up running them in
// parallel for a router with no goroutines, buffers or second copy.
// Only whole-service operations fan out, through fanOut.
//
// Because shard boundaries are aligned to curve-key intervals, the
// concatenation of the per-shard outputs in shard order is globally
// sorted by curve key and bit-identical to the record set a single engine
// holding the same data returns. The stat aggregation contract is
// documented on Stats: each shard's counters are bit-identical to a
// single engine holding exactly that shard's records executing the
// shard-restricted sub-plan, and the aggregate is their sum.
package shard

import (
	"errors"
	"fmt"
	"path/filepath"
	"runtime"
	"strings"
	"sync"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/pagedstore"
	"github.com/onioncurve/onion/internal/partition"
	"github.com/onioncurve/onion/internal/telemetry"
	"github.com/onioncurve/onion/internal/vfs"
)

var (
	// ErrClosed reports use of a closed sharded engine.
	ErrClosed = errors.New("shard: closed")
	// ErrManifest reports a shard directory opened with a configuration
	// (shard count, curve) different from the one it was created with.
	ErrManifest = errors.New("shard: directory manifest mismatch")
)

// Options tunes a sharded engine. The zero value selects the defaults.
type Options struct {
	// Shards is the number of key-space partitions, each served by an
	// independent engine (default GOMAXPROCS). The count is recorded in
	// the directory manifest and must match on reopen: records live in
	// the shard that owns their key, so silently changing the partition
	// would misroute queries.
	Shards int
	// Engine tunes every per-shard engine (page size, flush threshold,
	// WAL sync policy). Its FS, Cache and CommitHook must be unset: the
	// service hands every engine its FS and the cache CacheBytes makes,
	// and a commit hook is per shard (OpenReplicated installs one).
	Engine engine.Options
	// CacheBytes gives every shard engine ONE shared page cache with
	// this byte budget (0 disables caching). Sharing one cache makes the
	// budget a service-level knob: hot shards naturally claim more of
	// it. Caching changes only physical I/O — the logical stat contracts
	// hold bit-identically with the cache on or off. The cache splits the
	// budget over 8 internal shards of its own and each retains only
	// pages that fit its eighth, so a budget under 8 pages caches nothing.
	CacheBytes int64
	// FS is the filesystem the manifest and every shard engine live on.
	// Nil selects the real filesystem; fault-injection tests pass a
	// vfs.Injecting.
	FS vfs.FS

	// commitHook, when set, installs a per-shard commit hook into each
	// shard engine: shard i's engine gets commitHook(i). OpenReplicated
	// threads per-shard replication through it.
	commitHook func(shard int) engine.CommitHook
}

func (o Options) withDefaults() Options {
	if o.Shards <= 0 {
		o.Shards = runtime.GOMAXPROCS(0)
	}
	return o
}

// engineOpts returns the options every shard engine starts from:
// Engine, on FS. The filesystem, the cache and the commit hook are the
// service's to hand out, so setting them on Engine is an error — and a
// commit hook set there would be shared by every shard's engine.
func (o Options) engineOpts() (engine.Options, error) {
	e := o.Engine
	switch {
	case e.FS != nil:
		return e, errors.New("shard: set Options.FS, not Options.Engine.FS")
	case e.Cache != nil:
		return e, errors.New("shard: set Options.CacheBytes, not Options.Engine.Cache")
	case e.CommitHook != nil:
		return e, errors.New("shard: Options.Engine.CommitHook would be shared by every shard; use OpenReplicated")
	}
	e.FS = o.FS
	return e, nil
}

// Record is one stored point with an opaque payload (the engine type).
type Record = engine.Record

// EngineStats is a point-in-time summary of a sharded engine's shape:
// the per-shard engine summaries plus their totals.
type EngineStats struct {
	// PerShard holds each shard's engine summary, in shard order.
	PerShard []engine.EngineStats
	// Totals across shards.
	MemEntries     int64
	ImmMemtables   int
	Segments       int
	SegmentRecords int
	WALBytes       int64
	Flushes        uint64
	Compactions    uint64
}

// Sharded is a partition-aware sharded storage engine whose query router
// runs on the caller's goroutine, visiting the touched shards in key
// order; a multi-shard query runs its shards one after another. All
// methods are safe for concurrent use.
type Sharded struct {
	c       curve.Curve
	part    *partition.Partitioner
	engines []*engine.Engine
	opts    Options
	cache   *pagedstore.Cache // shared across shard engines; nil when disabled

	reg  *telemetry.Registry // router-level metrics (fan-out, degradation, shared cache)
	rtel *routerTelemetry

	mu     sync.RWMutex // held shared by every operation; exclusively by Close
	closed bool
}

// Open opens (creating if needed) the sharded engine rooted at dir,
// clustered by c. Shard i's engine lives in dir/shard-<i> and recovers
// independently: a crash affects only the shards it interrupted. The
// shard count and curve identity are recorded in dir/MANIFEST on first
// open and verified afterwards (ErrManifest, and curve.ErrMismatch).
func Open(dir string, c curve.Curve, opts Options) (*Sharded, error) {
	opts = opts.withDefaults()
	engOpts, err := opts.engineOpts()
	if err != nil {
		return nil, err
	}
	fsys := vfs.Or(opts.FS)
	part, err := partition.Uniform(c, opts.Shards)
	if err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("shard: %w", err)
	}
	id := curve.IdentityOf(c)
	check := func(data []byte) error { return checkManifest(string(data), id, opts.Shards) }
	if err := vfs.CheckOrCreate(fsys, filepath.Join(dir, manifestName), []byte(manifest(id, opts.Shards)), curve.MaxRecordBytes+1, check); err != nil {
		return nil, fmt.Errorf("shard: %s: %w", dir, err)
	}
	s := &Sharded{c: c, part: part, opts: opts}
	// One page cache for every shard engine: a single byte budget over
	// the whole service, populated by whichever shards run hot.
	if opts.CacheBytes > 0 {
		engOpts.Cache = pagedstore.NewCache(opts.CacheBytes)
	}
	s.cache = engOpts.Cache
	for i := 0; i < opts.Shards; i++ {
		if opts.commitHook != nil {
			engOpts.CommitHook = opts.commitHook(i)
		}
		e, err := engine.Open(shardDir(dir, i), c, engOpts)
		if err != nil {
			for _, open := range s.engines {
				open.Close() //nolint:errcheck
			}
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		s.engines = append(s.engines, e)
	}
	s.reg = telemetry.NewRegistry()
	s.rtel = newRouterTelemetry(s.reg)
	s.registerRouterTelemetry()
	return s, nil
}

// CacheStats summarizes the shared page cache across every shard engine
// (zero when caching is disabled).
func (s *Sharded) CacheStats() pagedstore.CacheStats {
	if s.cache == nil {
		return pagedstore.CacheStats{}
	}
	return s.cache.Stats()
}

func shardDir(dir string, i int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d", i))
}

const manifestName = "MANIFEST"

// manifest renders the configuration identity of a sharded directory:
// its shard count and its curve's identity.
func manifest(id curve.Identity, shards int) string {
	return fmt.Sprintf("onion-sharded v2\nshards %d\n%s", shards, id.Lines())
}

// checkManifest checks a manifest body against the curve identity id
// over shards shards (ErrManifest). Only v2 is read: a v1 body, which
// recorded no fingerprint, is refused as not a manifest.
func checkManifest(body string, id curve.Identity, shards int) error {
	lines := strings.Split(body, "\n")
	if len(body) > curve.MaxRecordBytes || len(lines) != 7 || lines[6] != "" || lines[0] != "onion-sharded v2" {
		return fmt.Errorf("%w: %w: not a v2 sharded manifest: %.80q", ErrManifest, curve.ErrBadIdentity, body)
	}
	got, err := curve.ParseIdentity(lines[2:6])
	if err == nil {
		err = id.Check(got)
	}
	if want := fmt.Sprintf("shards %d", shards); err == nil && lines[1] != want {
		err = fmt.Errorf("directory records %q, opening with %q", lines[1], want)
	}
	if err != nil {
		return fmt.Errorf("%w: %w", ErrManifest, err)
	}
	return nil
}

// Shards returns the number of shards.
func (s *Sharded) Shards() int { return len(s.engines) }

// Put inserts or overwrites the record at point p in the shard owning its
// curve key. Durability is the owning engine's: acknowledged after WAL
// append (and fsync with Options.Engine.SyncWrites).
func (s *Sharded) Put(p geom.Point, payload uint64) error {
	return s.write(p, payload, false)
}

// Delete removes the record at point p (a blind tombstone in the owning
// shard; deleting an absent point is not an error).
func (s *Sharded) Delete(p geom.Point) error {
	return s.write(p, 0, true)
}

func (s *Sharded) write(p geom.Point, payload uint64, del bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	key, err := engine.KeyOf(s.c, p)
	if err != nil {
		return err
	}
	op := [1]engine.BatchOp{{Key: key, Payload: payload, Del: del}}
	return s.engines[s.part.Of(key)].PutBatch(op[:])
}

// fanOut runs fn(i) for every shard index i in [0, n), each on a
// goroutine of its own, and returns once all n calls have, with the
// lowest failing index's error wrapped as "shard i: err". Whole-service
// operations run on it; queries do not (see Sharded.exec).
func fanOut(n int, fn func(i int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range n {
		go func() {
			defer wg.Done()
			errs[i] = fn(i)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return nil
}

// each runs fn on every shard engine concurrently (see fanOut).
func (s *Sharded) each(fn func(*engine.Engine) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	return fanOut(len(s.engines), func(i int) error { return fn(s.engines[i]) })
}

// Sync makes every previously acknowledged write durable on every shard.
func (s *Sharded) Sync() error { return s.each((*engine.Engine).Sync) }

// Flush freezes and writes out every shard's active memtable. Shards
// flush concurrently and independently.
func (s *Sharded) Flush() error { return s.each((*engine.Engine).Flush) }

// Compact fully compacts every shard: afterwards each shard's disk state
// is a single curve-ordered segment of exactly its live records.
func (s *Sharded) Compact() error { return s.each((*engine.Engine).Compact) }

// BackgroundErr returns the most recent background flush/compaction error
// across shards, or nil when every shard's last background cycle
// succeeded.
func (s *Sharded) BackgroundErr() error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return ErrClosed
	}
	for _, e := range s.engines {
		if err := e.BackgroundErr(); err != nil {
			return err
		}
	}
	return nil
}

// ShardHealth is one shard's degradation state (see engine.Health for
// the state machine) and the error that drove it there.
type ShardHealth struct {
	Shard int
	State engine.Health
	Err   error
}

// Health reports every shard's degradation state, in shard order. A
// sharded service degrades shard by shard: a shard in ReadOnly rejects
// writes routed to it while the others keep accepting, and queries keep
// serving from every shard that still can.
func (s *Sharded) Health() []ShardHealth {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ShardHealth, len(s.engines))
	for i, e := range s.engines {
		st, err := e.Health()
		out[i] = ShardHealth{Shard: i, State: st, Err: err}
	}
	return out
}

// Verify scrubs every shard's segments against their checksums (see
// engine.Verify), quarantining any that fail. The per-shard reports come
// back in shard order; the first hard verification error (not a
// quarantine — those are reported, not returned) is the error.
func (s *Sharded) Verify() ([]engine.VerifyReport, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	reps := make([]engine.VerifyReport, len(s.engines))
	var firstErr error
	for i, e := range s.engines {
		rep, err := e.Verify()
		reps[i] = rep
		if err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return reps, firstErr
}

// Stats returns a point-in-time summary of every shard plus totals.
func (s *Sharded) Stats() EngineStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	st := EngineStats{PerShard: make([]engine.EngineStats, len(s.engines))}
	if s.closed {
		return st
	}
	for i, e := range s.engines {
		es := e.Stats()
		st.PerShard[i] = es
		st.MemEntries += es.MemEntries
		st.ImmMemtables += es.ImmMemtables
		st.Segments += es.Segments
		st.SegmentRecords += es.SegmentRecords
		st.WALBytes += es.WALBytes
		st.Flushes += es.Flushes
		st.Compactions += es.Compactions
	}
	return st
}

// Close flushes and closes every shard engine. The sharded engine is
// unusable afterwards; reopen with Open.
func (s *Sharded) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.closed = true
	s.mu.Unlock()
	var firstErr error
	for _, e := range s.engines {
		if err := e.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}
