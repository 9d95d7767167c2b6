package engine

import (
	"context"
	"errors"
	"fmt"
	"math/rand/v2"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/pagedstore"
	"github.com/onioncurve/onion/internal/ranges"
	"github.com/onioncurve/onion/internal/telemetry"
	"github.com/onioncurve/onion/internal/vfs"
)

var (
	// ErrClosed reports use of a closed engine.
	ErrClosed = errors.New("engine: closed")
	// ErrPoint reports a point outside the engine's universe, or a key
	// outside its curve's key space.
	ErrPoint = errors.New("engine: point outside universe")
	// ErrRanges reports a malformed pre-planned range list passed to
	// QueryRanges: unsorted, overlapping, or beyond the key space.
	ErrRanges = errors.New("engine: invalid key ranges")
)

// Options tunes an Engine. The zero value selects the defaults.
type Options struct {
	// PageBytes is the segment page size (default 4096).
	PageBytes int
	// FlushEntries triggers an automatic background flush once the active
	// memtable holds this many versions, each followed by size-tiered
	// compaction (default 1 << 16). Negative disables both: the caller
	// runs Flush and Compact.
	FlushEntries int
	// SyncWrites fsyncs the WAL on every Put/Delete before acknowledging.
	// Off by default: group durability is available through Sync. Forced
	// on when CommitHook is set.
	SyncWrites bool
	// Cache is the page cache for the engine's segments (nil disables
	// caching; build one with pagedstore.NewCache) — pass the same cache
	// to several engines (the sharded service does) to share one byte
	// budget across them. Caching changes only the physical I/O
	// (Stats.IO): the logical seek/page accounting is bit-identical with
	// the cache on or off. The engine does not export the cache's
	// counters; its owner does (RegisterCacheTelemetry).
	Cache *pagedstore.Cache
	// FS is the filesystem the engine's files live on. Nil selects the
	// real filesystem; fault-injection tests pass a vfs.Injecting to turn
	// every WAL append, fsync, segment install and directory operation
	// into a deterministic fault point.
	FS vfs.FS
	// CommitHook, when non-nil, observes every write batch and gates its
	// acknowledgement on the hook's Commit — the seam WAL replication
	// hangs off. See the CommitHook contract. Setting it forces
	// SyncWrites on.
	CommitHook CommitHook

	// noTelemetry disables hot-path metric recording (the registry stays,
	// empty). Unexported: only the benchmark baseline that quantifies the
	// telemetry overhead sets it.
	noTelemetry bool

	// compactFanout is the size-tiered trigger: a run of at least this
	// many age-adjacent, similar-sized segments is merged in the
	// background (default 4; negative disables background compaction).
	// Unexported: only this package's tests lower or disable it.
	compactFanout int

	// noArchive deletes every retired WAL, even after a snapshot (see
	// NoArchive). Without it, a WAL retired before the engine's first
	// snapshot (ExportSeed does not count) is deleted and every later one
	// is archived under dir/archive/ and kept: the history point-in-time
	// restore replays.
	noArchive bool

	// Background-failure backoff: a failed background flush or compaction
	// is retried retryAttempts times with exponential delay from
	// retryBase capped at retryCap (jittered ±50%) before the engine
	// degrades. Unexported: only fault-injection tests shrink them.
	retryBase     time.Duration
	retryCap      time.Duration
	retryAttempts int
}

func (o Options) withDefaults() Options {
	if o.CommitHook != nil {
		o.SyncWrites = true
	}
	if o.PageBytes == 0 {
		o.PageBytes = 4096
	}
	if o.FlushEntries == 0 {
		o.FlushEntries = 1 << 16
	}
	if o.compactFanout == 0 {
		o.compactFanout = 4
	}
	if o.retryBase == 0 {
		o.retryBase = 10 * time.Millisecond
	}
	if o.retryCap == 0 {
		o.retryCap = 160 * time.Millisecond
	}
	if o.retryAttempts == 0 {
		o.retryAttempts = 5
	}
	return o
}

// Record is one stored point with an opaque payload (the pagedstore type:
// segments are pagedstore files).
type Record = pagedstore.Record

// Stats is the access pattern of one engine query. The embedded
// pagedstore.Stats counts exactly as a pagedstore query does — Seeks is
// the number of visits to non-contiguous segment pages summed over the
// live segments, PagesRead likewise; the memtable contributes no
// seeks (it is RAM). RecordsScanned is the number of records the segment
// cursors decoded — every version and tombstone a segment holds inside
// the planned ranges — so RecordsScanned / Results is the read
// amplification of the LSM: 1 on a compacted engine, higher by whatever
// shadowed versions and tombstones the merge read and dropped (results a
// memtable served are RAM, and add to Results alone). On a fully
// flushed and compacted engine the embedded Stats of a query are
// bit-identical to the Stats of the same query against a pagedstore
// holding the same records.
type Stats struct {
	pagedstore.Stats
	// MemEntries is the number of memtable entries merged into the result.
	MemEntries int
	// Segments is the number of live segments consulted.
	Segments int
	// Planned is the number of key ranges produced by the single
	// RangePlanner call — the clustering number of the query rectangle.
	Planned int
	// IO is the physical I/O the query actually performed, summed over
	// the segment cursors. Unlike every other counter it depends on
	// cache state and segment-footer pruning, so it is excluded from the
	// bit-identical stat contracts: the logical counters above prove the
	// clustering accounting, IO shows how much of it the performance
	// layer absorbed.
	IO pagedstore.IOStats
}

// Add accumulates o's access counters into s — the part of Stats that
// sums across sources, be they the segment cursors of one query or the
// shards of one fan-out. Results and Planned describe the query as a
// whole and are set by its body.
func (s *Stats) Add(o Stats) {
	s.Seeks += o.Seeks
	s.PagesRead += o.PagesRead
	s.RecordsScanned += o.RecordsScanned
	s.MemEntries += o.MemEntries
	s.Segments += o.Segments
	s.IO.Add(o.IO)
}

// EngineStats is a point-in-time summary of the engine's shape.
type EngineStats struct {
	MemEntries     int64  // versions in the active memtable
	ImmMemtables   int    // frozen memtables awaiting flush
	Segments       int    // live immutable segments
	SegmentRecords int    // records across live segments (incl. tombstones)
	WALBytes       int64  // bytes appended to the active WAL
	LastSeq        uint64 // last assigned sequence number
	Flushes        uint64
	Compactions    uint64
}

// Engine is a durable LSM-style spatial store keyed by curve index. See
// the package comment for the architecture. All methods are safe for
// concurrent use.
//
// Lock order: flushMu, then walMu, then mu (see the package comment).
type Engine struct {
	dir   string
	c     curve.Curve
	id    curve.Identity // c's, computed once at Open
	opts  Options
	fs    vfs.FS            // all file access funnels through here
	cache *pagedstore.Cache // segment page cache; nil when disabled

	health healthState // monotonic degradation state (health.go)
	scrub  atomic.Bool // a query hit ErrCorrupt; background Verify pending

	// reg/events/tel are the observability layer (telemetry.go): reg and
	// events are always non-nil after Open; tel is nil only under the
	// benchmark-only noTelemetry option, and every hot-path record site
	// guards on that.
	reg    *telemetry.Registry
	events *telemetry.Events
	tel    *engineTelemetry

	// walMu is the write lock: PutBatch holds it from sequence assignment
	// through the memtable inserts, so log order, sequence order and
	// memtable order agree, and pins the active WAL and memtable against
	// rotation. A nil wal means the engine is closed for writes.
	walMu sync.Mutex
	wal   *wal
	hook  CommitHook // replication seam; nil for a standalone engine
	// seq is the last assigned sequence number and walBytes the active
	// log's length (0 with none). Both are written under walMu and read
	// without it, so Stats and the gauges never wait out a batch.
	seq      atomic.Uint64
	walBytes atomic.Int64
	// visible is the last sequence number queries see: PutBatch stores it
	// after a batch's memtable inserts, so a snapshot is always a prefix
	// of history made of whole batches.
	visible atomic.Uint64

	// mu guards the engine's structure: memtable identity (written under
	// walMu too), segment list, closed flag. Queries hold it shared for
	// their whole body, so no segment closes under a reader; rotations,
	// installs and Close hold it exclusive only for their pointer swaps.
	mu     sync.RWMutex
	mem    *memtable
	imm    []*memtable // frozen memtables, oldest first
	segs   []*segment  // live segments, oldest first
	gen    uint64      // next file generation
	closed bool

	flushMu sync.Mutex // serializes flush and compaction bodies
	// archiving (under flushMu) moves retired WALs into archive/ instead
	// of deleting them: the first Snapshot or SnapshotSince sets it (an
	// ExportSeed leaves it as it is), and so does Open when archive/
	// exists.
	archiving bool

	bgErrMu sync.Mutex
	bgErr   error // last background flush/compaction error, nil after success

	flushes     atomic.Uint64
	compactions atomic.Uint64

	bg     chan struct{} // background flush/compact doorbell
	bgStop chan struct{}
	bgDone chan struct{}
}

// Open opens (creating if needed) the engine rooted at dir, clustered by
// c. Any WAL left by a crash is replayed — torn tails are truncated away,
// so exactly the acknowledged writes survive — and immediately flushed to
// a fresh segment. Open checks c against the directory's identity file,
// which covers every file in it (curve.ErrMismatch), or stamps a
// directory without data. It refuses data without an identity file
// (curve.ErrBadIdentity) and a WAL of retired ops (ErrRetiredOp), writing
// nothing.
func Open(dir string, c curve.Curve, opts Options) (*Engine, error) {
	opts = opts.withDefaults()
	fsys := vfs.Or(opts.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	segIDs, walGens, archived, err := scanDir(fsys, dir)
	if err != nil {
		return nil, err
	}
	id := curve.IdentityOf(c)
	if err := vfs.CheckOrCreate(fsys, filepath.Join(dir, identityFile), id.Record(), curve.MaxRecordBytes+1, id.CheckRecord); err != nil {
		return nil, fmt.Errorf("engine: %s: %w", dir, err)
	}
	e := &Engine{dir: dir, c: c, id: id, opts: opts, fs: fsys, hook: opts.CommitHook, cache: opts.Cache,
		archiving: archived && !opts.noArchive}
	e.reg = telemetry.NewRegistry()
	e.events = telemetry.NewEvents(0)
	if !opts.noTelemetry {
		e.tel = newEngineTelemetry(e.reg)
		e.registerSampledTelemetry()
	}
	for _, id := range segIDs {
		seg, err := openSegment(fsys, dir, c, id, e.cache)
		if err != nil {
			e.releaseSegments()
			return nil, err
		}
		e.segs = append(e.segs, seg)
		if id.hi >= e.gen {
			e.gen = id.hi + 1
		}
	}
	// Replay surviving WALs (oldest first) into a recovery memtable and
	// flush it: after Open the log is empty and the data is in segments.
	var recovered *memtable
	for _, g := range walGens {
		if g >= e.gen {
			e.gen = g + 1
		}
		if walCovered(segIDs, g) {
			// The log's generation already reached a segment: this WAL
			// is the leftover of a retirement that failed after the
			// segment install. Replaying it would re-apply its versions
			// — tombstones included — at the newest priority, shadowing
			// every later write; skip it (the removal loop below still
			// deletes the file).
			continue
		}
		ops, err := replayWAL(fsys, walPath(dir, g), c.Universe().Size())
		if err != nil {
			e.releaseSegments()
			return nil, err
		}
		for _, op := range ops {
			if recovered == nil {
				recovered = newMemtable(e.gen, c.Universe().Size())
			}
			recovered.put(op.Key, op.Payload, e.seq.Add(1), op.Del)
		}
	}
	e.visible.Store(e.seq.Load())
	if recovered != nil {
		seg, err := writeSegment(fsys, dir, c, segID{lo: e.gen, hi: e.gen}, recovered.flushEntries(), opts.PageBytes, e.cache)
		if err != nil {
			e.releaseSegments()
			return nil, err
		}
		e.segs = append(e.segs, seg)
		e.gen++
		e.flushes.Add(1)
	}
	for _, g := range walGens {
		if err := archiveWAL(fsys, dir, g, e.archiving); err != nil {
			e.releaseSegments()
			return nil, err
		}
	}
	if _, _, err := e.rotateLocked(); err != nil {
		e.releaseSegments()
		return nil, err
	}
	e.bg = make(chan struct{}, 1)
	e.bgStop = make(chan struct{})
	e.bgDone = make(chan struct{})
	go e.background()
	return e, nil
}

// identityFile records the identity of the curve that wrote a directory.
const identityFile = "CURVE"

// Identity returns the identity of the engine's curve.
func (e *Engine) Identity() curve.Identity { return e.id }

// walCovered reports whether generation g's data already reached a live
// segment: flush installs segment [g, g] (and compaction may merge it
// into a wider range) strictly before retiring WAL g, so a surviving
// WAL whose generation a segment covers holds nothing the segments
// don't.
func walCovered(segs []segID, g uint64) bool {
	for _, id := range segs {
		if id.lo <= g && g <= id.hi {
			return true
		}
	}
	return false
}

func (e *Engine) releaseSegments() {
	for _, s := range e.segs {
		s.st.Close()
	}
	e.segs = nil
}

// background drains the doorbell: each ring runs a pending corruption
// scrub and then, when automatic flushing is on, flushes the active
// memtable once it is over the threshold and applies the size-tiered
// compaction policy until it reaches a fixed point. Failures retry with
// capped jittered backoff; when the retries run dry the engine degrades
// — to ReadOnly for flush failures (acked data is stranded in memory and
// every further write grows the debt), to Degraded for compaction
// failures (the engine is merely getting slower and wider, not less
// durable).
func (e *Engine) background() {
	defer close(e.bgDone)
	for {
		select {
		case <-e.bgStop:
			return
		case <-e.bg:
			if e.scrub.Swap(false) {
				if _, err := e.Verify(); err != nil {
					e.setBgErr(err)
				}
			}
			if e.opts.FlushEntries <= 0 {
				continue // the caller runs Flush and Compact
			}
			if e.memEntries() >= int64(e.opts.FlushEntries) {
				e.setBgErr(e.retryBg(e.Flush, ReadOnly))
			}
			if e.opts.compactFanout > 0 {
				e.setBgErr(e.retryBg(e.maybeCompact, Degraded))
			}
		}
	}
}

// retryBg runs one background maintenance op, retrying failures with
// exponentially growing, ±50%-jittered, capped delays. If every attempt
// fails the engine degrades to fallback and the last error is returned;
// shutdown interrupts the backoff immediately.
func (e *Engine) retryBg(op func() error, fallback Health) error {
	delay := e.opts.retryBase
	var err error
	for attempt := 0; ; attempt++ {
		if err = op(); err == nil || errors.Is(err, ErrClosed) {
			return err
		}
		if attempt == e.opts.retryAttempts-1 {
			break
		}
		if tel := e.tel; tel != nil {
			tel.bgRetries.Inc()
		}
		d := delay/2 + rand.N(delay)
		if delay *= 2; delay > e.opts.retryCap {
			delay = e.opts.retryCap
		}
		t := time.NewTimer(d)
		select {
		case <-e.bgStop:
			t.Stop()
			return err
		case <-t.C:
		}
	}
	e.degrade(fallback, err)
	return err
}

// setBgErr records the outcome of a background flush or compaction; a
// success clears an earlier failure (flushLocked retries stranded
// memtables, so transient errors self-heal).
func (e *Engine) setBgErr(err error) {
	if errors.Is(err, ErrClosed) {
		return
	}
	e.bgErrMu.Lock()
	e.bgErr = err
	e.bgErrMu.Unlock()
}

// BackgroundErr returns the most recent error of a background flush or
// compaction, or nil if the last background cycle succeeded. Background
// failures never drop acknowledged data — frozen memtables stay queued
// and WALs stay on disk until a later flush succeeds — but a persistent
// error means memory keeps growing, which this surfaces.
func (e *Engine) BackgroundErr() error {
	e.bgErrMu.Lock()
	defer e.bgErrMu.Unlock()
	return e.bgErr
}

func (e *Engine) memEntries() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.mem.entries.Load()
}

// Put inserts or overwrites the record at point p. The write is
// acknowledged after it is framed into the WAL and inserted into the
// memtable; with Options.SyncWrites it is also fsynced first.
func (e *Engine) Put(p geom.Point, payload uint64) error { return e.write(p, payload, false) }

// Delete removes the record at point p (a blind tombstone write: deleting
// an absent point is not an error, matching LSM semantics).
func (e *Engine) Delete(p geom.Point) error { return e.write(p, 0, true) }

// write is Put and Delete: a one-op batch, keyed here.
func (e *Engine) write(p geom.Point, payload uint64, del bool) error {
	key, err := KeyOf(e.c, p)
	if err != nil {
		return err
	}
	op := [1]BatchOp{{Key: key, Payload: payload, Del: del}}
	return e.PutBatch(op[:])
}

// Sync makes every previously acknowledged write durable. A failed sync
// leaves durability unknowable for the unsynced suffix, so it degrades
// the engine to ReadOnly exactly as a failed synchronous write does.
func (e *Engine) Sync() error {
	e.walMu.Lock()
	if e.wal == nil {
		e.walMu.Unlock()
		return ErrClosed
	}
	start := time.Now()
	err := walErr(e.wal.Sync())
	e.walMu.Unlock()
	if tel := e.tel; tel != nil && err == nil {
		tel.walFsyncs.Inc()
		tel.walFsyncUS.Record(uint64(time.Since(start).Microseconds()))
	}
	if err != nil {
		e.degrade(ReadOnly, err)
		return fmt.Errorf("%w: %w", ErrReadOnly, err)
	}
	return nil
}

// source priorities for the k-way merge: larger is newer.
type mergeSource struct {
	mem *memIter           // nil for segment sources
	cur *pagedstore.Cursor // nil for memtable sources
	// head is the current entry, meaningful while ok.
	head pagedstore.Entry
	ok   bool
	prio int
}

func (m *mergeSource) advance() (err error) {
	if m.mem != nil {
		m.ok = m.mem.next(&m.head)
		return nil
	}
	m.ok, err = m.cur.NextInto(&m.head)
	return err
}

// queryState is the reusable scratch of one query execution: the plan
// buffer, the merge sources (a segment's holds its cursor) and
// iterators, and the in-flight output. States recycle through a pool, so
// a steady-state query allocates nothing — the cursors come from their stores' pools,
// the records land in the caller's buffer, and everything in between
// lives here.
type queryState struct {
	plan    []curve.KeyRange
	segSrcs []mergeSource // one per segment, holding its cursor
	memSrcs []mergeSource
	iters   []memIter
	mems    []*memtable
	pass    []*mergeSource
	live    []*mergeSource
	out     []Record
	recs    pagedstore.KeyedRecords // the keys of out's new records
	memHits int
	// memSearches and memSkips count the (range, memtable) pairs searched
	// and those the occupancy bitmap ruled out, and drained the ranges
	// whose one source was a segment, for telemetry.
	memSearches, memSkips, drained int
}

var qsPool = sync.Pool{New: func() any { return new(queryState) }}

// emit implements mergeSink: the merge hands over the newest holder of
// each key; live records append to the output by key and payload (their
// points are filled in once the merge is done) and memtable wins are
// tallied.
func (q *queryState) emit(win *mergeSource) {
	if !win.head.Marked {
		q.out = q.recs.Append(q.out, win.head.Key, win.head.Payload)
	}
	if win.mem != nil {
		q.memHits++
	}
}

// Query returns every live record whose point lies inside r together with
// the logical access pattern. The curve's range planner runs exactly
// once; each resulting cluster range is then answered by one k-way merge
// pass over the memtable and every live segment, newest source winning on
// duplicate keys and tombstones suppressing older versions — or, when a
// segment is the range's one source, by draining that segment's pages
// with no merge at all (pagedstore.Cursor.AppendLive), which keeps the
// same records. The seek and page accounting is pagedstore's, summed over
// segments.
func (e *Engine) Query(r geom.Rect) ([]Record, Stats, error) {
	return e.query(context.Background(), nil, &r, nil)
}

// QueryAppend is Query appending into dst: recycling the same dst across
// queries reuses the record slots and their Point buffers, so the
// steady-state query path allocates nothing. Stats.Results counts only
// the records this call appended.
func (e *Engine) QueryAppend(dst []Record, r geom.Rect) ([]Record, Stats, error) {
	return e.query(context.Background(), dst, &r, nil)
}

// QueryAppendContext is QueryAppend under a context: the query checks ctx
// between ranges and inside long range scans — between the pages of a
// drained range, every 1 024 keys of a merged one — so a timeout or
// cancellation stops the query promptly and returns ctx.Err() with
// whatever statistics had accumulated.
func (e *Engine) QueryAppendContext(ctx context.Context, dst []Record, r geom.Rect) ([]Record, Stats, error) {
	return e.query(ctx, dst, &r, nil)
}

// QueryRanges executes a pre-planned list of key ranges, appending into
// dst under ctx: every live record whose curve key falls in one of the
// ranges, in ascending key order, together with the logical access
// pattern. krs must be sorted ascending, disjoint and within the curve's
// key space — the shape RangePlanner emits — or the call fails with
// ErrRanges; a query router that plans a rectangle once and fans its
// ranges out to partitioned engines calls this hook so no engine
// re-plans. Stats.Planned is left zero: planning happened (at most once)
// in the caller.
func (e *Engine) QueryRanges(ctx context.Context, dst []Record, krs []curve.KeyRange) ([]Record, Stats, error) {
	return e.query(ctx, dst, nil, krs)
}

// query is the one instrumented query body every entry point reaches: it
// plans r (one planner call per rectangle — the whole query costs
// O(clusters) planning regardless of its volume) or, when r is nil,
// validates the caller's plan krs, executes the ranges, and records the
// outcome — served or failed, planner and plan rejections included —
// exactly once.
func (e *Engine) query(ctx context.Context, dst []Record, r *geom.Rect, krs []curve.KeyRange) ([]Record, Stats, error) {
	tel := e.tel
	var start time.Time
	if tel != nil {
		start = time.Now()
	}
	qs := qsPool.Get().(*queryState)
	var st Stats
	var err error
	if r != nil {
		if qs.plan, err = ranges.DecomposeAppend(e.c, *r, 0, qs.plan); err != nil {
			err = fmt.Errorf("engine: %w", err)
		}
		krs = qs.plan
	} else {
		err = e.checkPlan(krs)
	}
	if err == nil {
		dst, st, err = e.queryRanges(ctx, qs, dst, krs)
		if r != nil {
			st.Planned = len(krs)
		}
	}
	if tel != nil {
		tel.recordQuery(start, st, qs.memSearches, qs.memSkips, qs.drained, err)
	}
	qsPool.Put(qs)
	return dst, st, err
}

// checkPlan rejects a pre-planned range list that is not sorted
// ascending, disjoint and within the curve's key space.
func (e *Engine) checkPlan(krs []curve.KeyRange) error {
	n := e.c.Universe().Size()
	for i, kr := range krs {
		if kr.Lo > kr.Hi || kr.Hi >= n {
			return fmt.Errorf("%w: %v (key space [0,%d))", ErrRanges, kr, n)
		}
		if i > 0 && kr.Lo <= krs[i-1].Hi {
			return fmt.Errorf("%w: %v not after %v", ErrRanges, kr, krs[i-1])
		}
	}
	return nil
}

func (e *Engine) queryRanges(ctx context.Context, qs *queryState, dst []Record, krs []curve.KeyRange) ([]Record, Stats, error) {
	var st Stats
	base := len(dst)
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed {
		return dst, st, ErrClosed
	}
	snap := e.visible.Load()
	st.Segments = len(e.segs)

	// Sources, oldest to newest: segments (list order), frozen memtables
	// (list order), then the active memtable. Priority = slice position,
	// so on duplicate keys the newest source is authoritative. Each segment
	// cursor takes the whole plan here, once, and steps to the next range
	// in the loop below: holding the plan, it reads a run of pages that
	// spans several ranges with one positioned read.
	if cap(qs.segSrcs) < len(e.segs) {
		qs.segSrcs = make([]mergeSource, len(e.segs))
	}
	qs.segSrcs = qs.segSrcs[:len(e.segs)]
	for i, seg := range e.segs {
		qs.segSrcs[i] = mergeSource{cur: seg.st.AcquireCursor(), prio: i}
		qs.segSrcs[i].cur.Plan(krs)
	}
	qs.mems = append(qs.mems[:0], e.imm...)
	// An active memtable with no version visible at snap is left out once,
	// here, instead of being searched once per range below. entries == 0,
	// read after snap, proves it: a writer bumps entries inside
	// memtable.put and only then publishes its batch's last sequence
	// number, and snap was loaded from that watermark — so every version
	// with seq <= snap had already been counted when snap was read. (A
	// frozen memtable is never empty: only a non-empty one is rotated.)
	if e.mem.entries.Load() != 0 {
		qs.mems = append(qs.mems, e.mem)
	}
	if cap(qs.memSrcs) < len(qs.mems) {
		qs.memSrcs = make([]mergeSource, len(qs.mems))
	}
	qs.memSrcs = qs.memSrcs[:len(qs.mems)]
	if cap(qs.iters) < len(qs.mems) {
		qs.iters = make([]memIter, len(qs.mems))
	}
	qs.iters = qs.iters[:len(qs.mems)]

	qs.out = dst
	qs.memHits, qs.memSearches, qs.memSkips, qs.drained = 0, 0, 0, 0
	cancel := ctx.Done()
	var err error
	for _, kr := range krs {
		if cancel != nil {
			if err = ctx.Err(); err != nil {
				break
			}
		}
		qs.pass = qs.pass[:0]
		for i := range qs.segSrcs {
			s := &qs.segSrcs[i]
			s.cur.NextRange()
			qs.pass = append(qs.pass, s)
		}
		for j, m := range qs.mems {
			// A clear occupancy bitmap over kr proves m holds no version
			// in it, and so none at snap: put sets a key's bit before its
			// batch is published, the same order the entries check above
			// relies on.
			if !m.mayHold(kr) {
				qs.memSkips++
				continue
			}
			qs.memSearches++
			it := &qs.iters[j]
			it.init(m, kr, snap)
			qs.memSrcs[j] = mergeSource{mem: it, prio: len(qs.pass)}
			qs.pass = append(qs.pass, &qs.memSrcs[j])
		}
		// A segment alone in the range — the compacted shard with an
		// empty or unrelated memtable — drains page by page; any other
		// pass merges.
		if len(qs.pass) == 1 && qs.pass[0].cur != nil {
			qs.drained++
			err = qs.drain(ctx, qs.pass[0].cur)
		} else {
			err = mergeSources(qs.pass, &qs.live, qs, ctx)
		}
		if err != nil {
			break
		}
	}
	out := qs.out
	qs.out = nil
	st.MemEntries = qs.memHits
	for _, s := range qs.segSrcs {
		st.Add(Stats{Stats: s.cur.Stats(), IO: s.cur.IO()})
		s.cur.Release()
	}
	if err != nil {
		qs.recs = pagedstore.KeyedRecords{} // drop the keys of the records cut off
		if errors.Is(err, pagedstore.ErrCorrupt) {
			// A segment served a damaged page. Queue a background Verify
			// — it will quarantine the segment so later queries stop
			// tripping over it — and ring the doorbell.
			e.scrub.Store(true)
			select {
			case e.bg <- struct{}{}:
			default:
			}
		}
		return out[:base], st, err
	}
	qs.recs.Fill(e.c, out)
	st.Results = len(out) - base
	return out, st, nil
}

// drain appends the live records of the current range of cur, the
// range's one source, page by page: what mergeSources keeps of a lone
// source — the first of equal keys, unless it is a tombstone — without a
// merge step a record. ctx is polled between pages, so cancellation lands
// at a page boundary.
func (q *queryState) drain(ctx context.Context, cur *pagedstore.Cursor) error {
	done := ctx.Done()
	for {
		var more bool
		var err error
		if q.out, more, err = cur.AppendLive(q.out, &q.recs); err != nil || !more {
			return err
		}
		if done != nil {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
	}
}

// mergeSink receives the merged stream of mergeSources.
type mergeSink interface{ emit(win *mergeSource) }

// mergeSources primes the given sources and drains them in ascending key
// order: the sink's emit is called exactly once per distinct key, with
// the newest (highest-priority) holder of that key — tombstones
// included, so the sink decides whether they suppress or survive. Both
// the query path and segment compaction resolve duplicates through this
// one routine. scratch is the reusable live-source buffer. A non-nil
// ctx is polled every 1024 emitted keys, so cancellation lands mid-range
// without taxing the per-record hot path; compaction passes nil.
func mergeSources(srcs []*mergeSource, scratch *[]*mergeSource, sink mergeSink, ctx context.Context) error {
	var done <-chan struct{}
	if ctx != nil {
		done = ctx.Done()
	}
	live := (*scratch)[:0]
	for _, s := range srcs {
		if err := s.advance(); err != nil {
			*scratch = live
			return err
		}
		if s.ok {
			live = append(live, s)
		}
	}
	for emits := 0; len(live) > 0; emits++ {
		if done != nil && emits&1023 == 1023 {
			if err := ctx.Err(); err != nil {
				*scratch = live
				return err
			}
		}
		if len(live) == 1 {
			// One live source left — a memtable alone in its range, or
			// the tail of a merge whose other sources ran dry (a segment
			// alone in its range drains by the same rule, in
			// queryState.drain): it holds the next key alone, so it wins
			// without the scans below and is stepped past that key's
			// duplicates.
			s := live[0]
			sink.emit(s)
			for key := s.head.Key; s.ok && s.head.Key == key; {
				if err := s.advance(); err != nil {
					*scratch = live
					return err
				}
			}
			if !s.ok {
				live = live[:0]
			}
			continue
		}
		// Smallest key next; among equals the highest priority (newest)
		// version is authoritative.
		minKey := live[0].head.Key
		for _, s := range live[1:] {
			if s.head.Key < minKey {
				minKey = s.head.Key
			}
		}
		var winner *mergeSource
		for _, s := range live {
			if s.head.Key == minKey && (winner == nil || s.prio > winner.prio) {
				winner = s
			}
		}
		sink.emit(winner)
		// Advance every source sitting on minKey.
		next := live[:0]
		for _, s := range live {
			for s.ok && s.head.Key == minKey {
				if err := s.advance(); err != nil {
					*scratch = live
					return err
				}
			}
			if s.ok {
				next = append(next, s)
			}
		}
		live = next
	}
	*scratch = live
	return nil
}

// Flush freezes the active memtable and writes it out as one immutable
// curve-ordered segment, then retires its WAL. Concurrent writers land in
// the fresh memtable; concurrent queries keep seeing the frozen data
// until the segment is installed.
func (e *Engine) Flush() error {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	return e.flushLocked()
}

// rotateLocked swaps in a fresh WAL and memtable for generation e.gen and
// returns the pair they replace. It creates the log file, so only a
// caller that has the engine to itself, as Open does, calls it; freeze
// creates the log under walMu alone and takes e.mu only for the swap.
func (e *Engine) rotateLocked() (*wal, *memtable, error) {
	w, err := createWAL(e.fs, walPath(e.dir, e.gen))
	if err != nil {
		return nil, nil, err
	}
	oldWal, oldMem := e.wal, e.mem
	e.wal, e.mem = w, newMemtable(e.gen, e.c.Universe().Size())
	e.walBytes.Store(0)
	e.gen++
	return oldWal, oldMem, nil
}

func (e *Engine) flushLocked() error {
	oldWal, _, err := e.freeze(false, true)
	if err != nil {
		return err
	}
	if tel := e.tel; tel != nil && oldWal != nil {
		tel.walRotations.Inc()
	}
	return e.flushFrozen(oldWal)
}

// freeze (flushMu held) retires the active WAL and memtable if the
// memtable holds a version or force is set, queues a non-empty one on
// e.imm, and returns what it retired (nil if nothing). With next set a
// fresh log replaces the old one; without, the engine closes for writes.
// It waits out an in-flight batch and creates the log under walMu, and
// takes e.mu only for the pointer swap, so queries wait on neither.
func (e *Engine) freeze(force, next bool) (oldWal *wal, oldMem *memtable, err error) {
	e.walMu.Lock()
	defer e.walMu.Unlock()
	if e.wal == nil {
		return nil, nil, ErrClosed
	}
	if !force && e.mem.entries.Load() == 0 {
		return nil, nil, nil
	}
	var w *wal
	if next {
		if w, err = createWAL(e.fs, walPath(e.dir, e.gen)); err != nil {
			return nil, nil, err
		}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	oldWal, oldMem = e.wal, e.mem
	e.wal, e.mem = w, newMemtable(e.gen, e.c.Universe().Size())
	e.walBytes.Store(0) // a fresh log, or none
	e.gen++
	if oldMem.entries.Load() > 0 {
		e.imm = append(e.imm, oldMem)
	}
	return oldWal, oldMem, nil
}

// dropEmptyLog deletes the retired, closed log of memtable m if no
// acknowledged write reached it, so a reopen cannot replay frames of
// failed, unacknowledged appends.
func (e *Engine) dropEmptyLog(m *memtable) (err error) {
	if m.entries.Load() == 0 {
		if err = e.fs.Remove(walPath(e.dir, m.gen)); err != nil {
			err = fmt.Errorf("engine: %w", err)
		}
	}
	return err
}

// flushFrozen (flushMu held) closes the rotated-out WAL, if any, then
// writes each frozen memtable to a segment, installs it and retires the
// memtable's WAL. The frozen memtables include leftovers of an earlier
// failed flush, so a transient write error never strands data in memory.
func (e *Engine) flushFrozen(oldWal *wal) (err error) {
	e.mu.RLock()
	frozen := append([]*memtable(nil), e.imm...)
	e.mu.RUnlock()
	if oldWal == nil && len(frozen) == 0 {
		return nil
	}
	start := time.Now()
	e.emitEvent(telemetry.Event{Kind: telemetry.EvFlush, Phase: telemetry.PhaseStart})
	recs := 0
	defer func() {
		dur := time.Since(start)
		if tel := e.tel; tel != nil && err == nil {
			tel.flushUS.Record(uint64(dur.Microseconds()))
			tel.flushRecords.Add(uint64(recs))
		}
		e.emitEvent(telemetry.Event{Kind: telemetry.EvFlush, Phase: telemetry.PhaseEnd,
			Dur: dur, Records: int64(recs), Err: errString(err)})
	}()
	if oldWal != nil {
		if err := oldWal.close(); err != nil {
			return err
		}
	}
	for _, m := range frozen {
		// Write the segment outside any lock: queries keep reading the
		// frozen memtable from e.imm meanwhile.
		ents := m.flushEntries()
		seg, err := writeSegment(e.fs, e.dir, e.c, segID{lo: m.gen, hi: m.gen}, ents, e.opts.PageBytes, e.cache)
		if err != nil {
			return err
		}
		// Install the segment, retire the frozen memtable and its WAL.
		e.mu.Lock()
		e.segs = append(e.segs, seg)
		for i, im := range e.imm {
			if im == m {
				e.imm = append(e.imm[:i], e.imm[i+1:]...)
				break
			}
		}
		e.mu.Unlock()
		if err := archiveWAL(e.fs, e.dir, m.gen, e.archiving); err != nil {
			return err
		}
		e.flushes.Add(1)
		recs += len(ents)
	}
	return nil
}

// Stats returns a point-in-time summary of the engine's shape.
func (e *Engine) Stats() EngineStats {
	st := EngineStats{WALBytes: e.walBytes.Load(), LastSeq: e.seq.Load()}
	e.mu.RLock()
	defer e.mu.RUnlock()
	st.MemEntries = e.mem.entries.Load()
	st.ImmMemtables = len(e.imm)
	st.Segments = len(e.segs)
	for _, s := range e.segs {
		st.SegmentRecords += s.recs
	}
	st.Flushes = e.flushes.Load()
	st.Compactions = e.compactions.Load()
	return st
}

// FS returns the filesystem the engine's files live on; the replication
// state record kept inside the engine directory is written through it.
func (e *Engine) FS() vfs.FS { return e.fs }

// CacheStats summarizes the engine's segment page cache: hit/miss
// counts, resident bytes and evictions. It is zero when caching is
// disabled; with a shared cache (Options.Cache) the numbers span every
// engine on that cache.
func (e *Engine) CacheStats() pagedstore.CacheStats {
	if e.cache == nil {
		return pagedstore.CacheStats{}
	}
	return e.cache.Stats()
}

// Close flushes the memtable, stops the background worker and releases
// every file. The engine is unusable afterwards; reopen with Open.
func (e *Engine) Close() error {
	// Close for writes and freeze the last memtable. Under flushMu, so no
	// in-flight flush takes up the last memtable while its log is open.
	e.flushMu.Lock()
	w, last, err := e.freeze(true, false)
	e.flushMu.Unlock()
	if err != nil {
		return err
	}
	close(e.bgStop)
	<-e.bgDone
	// flushMu again: segment stores never close under a running Flush or
	// Compact body.
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	if last.entries.Load() == 0 {
		err = w.close()
		if rerr := e.dropEmptyLog(last); err == nil {
			err = rerr
		}
		w = nil
	}
	// A frozen memtable whose flush fails keeps its WAL, the sole durable
	// copy, for the next Open to replay.
	if ferr := e.flushFrozen(w); err == nil {
		err = ferr
	}
	e.mu.Lock()
	e.closed = true
	segs := e.segs
	e.segs = nil
	e.mu.Unlock()
	for _, s := range segs {
		if cerr := s.st.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
