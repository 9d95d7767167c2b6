package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	onion "github.com/onioncurve/onion"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/pagedstore"
	"github.com/onioncurve/onion/internal/ranges"
	"github.com/onioncurve/onion/internal/telemetry"
)

type kind int

const (
	kindRead   kind = iota // one client replays Q
	kindIngest             // two producers saturate the ingest pipeline
	kindMixed              // one reader cycles Q beside one open-loop writer
)

const (
	hotCacheBytes = 64 << 20 // at least every segment page of D
	window        = 256      // outstanding handles per closed-loop producer
	producers     = 2
	mixedPutsPerS = 40000 // the open-loop writer's fixed rate on mixed
	lateAck       = 5 * time.Second
	verifyEvery   = 50   // every 50th query is checked against the oracle
	verifyPuts    = 1000 // acked puts looked up after ingest-*

	// An ingest round is a fixed number of puts, so that every run takes the
	// store through the same flushes and compactions and leaves the same
	// bytes behind: a round of length L puts ingestPutsPerS×L points, which
	// ingest-durable finishes in about 0.75 L on the 2-core sandbox. A store
	// too slow for that is cut off at L and reads as a low number, not as a
	// hang; ingest-quorum, two orders of magnitude slower, always is.
	ingestPutsPerS = 140_000
	// The untimed warm-up round of ingest-*. It has to pass the 2×16 384
	// entries of replication history after which ingest-quorum collapses, or
	// the collapse falls into the timed rounds of some runs and not others.
	warmupPuts = 100_000
	warmupCap  = time.Second
)

type workload struct {
	name, why string
	kind      kind
	store     func(points int) storeOptions
}

// coldCacheBytes is a twelfth of D's segment pages (24 bytes a record).
func coldCacheBytes(points int) int64 { return int64(points) * 24 / 12 }

var workloads = []workload{
	{"query-hot", "pages all cached after warm-up, so planning, the engine merge, the page cursor and the shard router do the work and vfs almost none",
		kindRead, func(int) storeOptions { return storeOptions{cacheBytes: hotCacheBytes} }},
	{"query-cold", "the cache holds a twelfth of the pages, so page fetch, CRC check and cache admission and eviction dominate; query-hot is its bypass",
		kindRead, func(points int) storeOptions { return storeOptions{cacheBytes: coldCacheBytes(points)} }},
	{"ingest-durable", "saturating durable ingest: ring and batcher, PutBatch, WAL append and group-commit fsync, with background flushes and compactions; reads do nothing",
		kindIngest, func(int) storeOptions { return storeOptions{syncWrites: true} }},
	{"ingest-quorum", "the same write path with two followers a shard, so its ratio to ingest-durable is the replication tax",
		kindIngest, func(int) storeOptions { return storeOptions{syncWrites: true, replicated: true} }},
	{"mixed", "queries beside a fixed-rate durable writer: they merge the memtable and young segments, and flush and compaction stall them",
		kindMixed, func(int) storeOptions { return storeOptions{cacheBytes: hotCacheBytes, syncWrites: true} }},
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i]
		}
	}
	return nil
}

// queryTotals sums the Stats the timed queries returned.
type queryTotals struct {
	ops, planned, seeks, pagesRead, scanned, results int64
	fetched, cacheHits, memEntries, segments         int64
	shardsTouched, subRanges                         int64
}

func (t *queryTotals) add(st *onion.ShardedQueryStats) {
	t.ops++
	t.planned += int64(st.Planned)
	t.seeks += int64(st.Seeks)
	t.pagesRead += int64(st.PagesRead)
	t.scanned += int64(st.RecordsScanned)
	t.results += int64(st.Results)
	t.fetched += int64(st.IO.PagesFetched)
	t.cacheHits += int64(st.IO.CacheHits)
	t.memEntries += int64(st.MemEntries)
	t.segments += int64(st.Segments)
	t.shardsTouched += int64(st.ShardsTouched)
	t.subRanges += int64(st.SubRanges)
}

// logical is the part of the totals the cache must not change.
func (t *queryTotals) logical() [3]int64 { return [3]int64{t.seeks, t.pagesRead, t.scanned} }

// result is what one run of a workload — untraced or traced — measured.
type result struct {
	setups []float64 // seconds, one per repetition of the set-up

	roundOpPerS []float64       // per timed round
	lat         []time.Duration // every timed op; on the read workloads round by round, each in Q's order
	settled     []float64       // ns, one per query of Q; read workloads only
	ops         int64           // completed in the timed rounds
	wall        time.Duration
	attempted   int64
	failed      int64
	failures    []string // the first few, for the report

	q           queryTotals
	cacheOffP50 float64 // µs: op_p50_us of the reference rounds with CacheBytes 0, settled like the cached rounds'

	ackedPuts  int64 // acked during the timed rounds
	userBytes  int64 // accepted since the directory was created
	diskBytes  int64
	late       []time.Duration // how long after it was due each put of the open-loop writer was sent
	lagEnd     uint64
	cpuSeconds float64
	mallocs    uint64
	stealFrac  float64 // share of the box's CPU time the host took away during the timed rounds

	cache       [2]pagedstore.CacheStats // before and after the timed rounds
	tele        [2]telemetry.Snapshot
	ingest      [2]telemetry.Snapshot
	vfsRead     int64 // bytes, traced run only
	vfsWritten  int64
	replEntries int64
	spans       []span
}

func (r *result) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 5 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// run is one workload being run once.
type run struct {
	cfg *config
	wl  *workload
	c   onion.Curve
	tr  *tracer // nil on the untraced run
	d   *dataset
	dir string
	st  *store
	res *result

	// queries
	dst    []onion.Record
	plan   []ranges.KeyRange
	expect []int // results of each query of Q on the preloaded store
	next   int   // mixed: where the reader is in its cycle through Q
	opID   uint32

	// puts
	pipe   *onion.IngestPipeline
	prods  []*producer
	writer *openLoop
}

// runWorkload sets the workload up `setups` times, runs the timed rounds on
// the last store, verifies, and tears down.
func runWorkload(cfg *config, wl *workload, tr *tracer, setups int, seconds float64) (*result, error) {
	c, err := onion.NewOnion2D(side)
	if err != nil {
		return nil, err
	}
	r := &run{cfg: cfg, wl: wl, c: c, tr: tr, res: &result{}}
	for i := 0; i < setups; i++ {
		if i > 0 {
			if err := r.teardown(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		r.dir = filepath.Join(cfg.dir, fmt.Sprintf("%s-%d", wl.name, i))
		if err := r.setup(); err != nil {
			r.teardown() //nolint:errcheck // the set-up error is the one to report
			return nil, fmt.Errorf("set-up: %w", err)
		}
		r.res.setups = append(r.res.setups, time.Since(start).Seconds())
	}
	err = r.measure(seconds)
	if terr := r.teardown(); err == nil {
		err = terr
	}
	return r.res, err
}

// setup is the sequence setup_s times: generate D and Q, preload, reopen
// the way the workload uses the store, and one untimed warm-up round.
func (r *run) setup() error {
	r.d = generate(r.cfg.seed, r.cfg.points, r.cfg.queries)
	if err := preload(r.dir, r.c, r.d); err != nil {
		return err
	}
	var err error
	if r.st, err = openStore(r.dir, r.c, r.wl.store(r.cfg.points), r.tr); err != nil {
		return err
	}
	r.res.userBytes = int64(len(r.d.xs)) * userBytes
	if r.wl.kind != kindRead {
		if r.pipe, err = r.st.NewIngest(onion.IngestConfig{}); err != nil {
			return err
		}
	}
	switch r.wl.kind {
	case kindIngest:
		r.prods = nil
		for p := 0; p < producers; p++ {
			r.prods = append(r.prods, &producer{
				pipe: r.pipe, st: newStream(r.cfg.seed, p, producers),
				rec: r.recorder(), opID: uint32(p) << 30,
			})
		}
		r.ingestRound(warmupCap, warmupPuts, false)
	case kindMixed:
		r.writer = &openLoop{pipe: r.pipe, st: newStream(r.cfg.seed, 0, 1)}
		fallthrough
	case kindRead:
		r.expect = make([]int, len(r.d.rects))
		r.readRound(r.st.ShardedEngine, nil, r.recorder())
	}
	return nil
}

func (r *run) recorder() *recorder {
	if r.tr == nil {
		return nil
	}
	return r.tr.rec
}

func (r *run) teardown() error {
	var first error
	if r.pipe != nil {
		first = r.pipe.Close()
		r.pipe = nil
	}
	if r.st != nil {
		if err := r.st.Close(); err != nil && first == nil {
			first = err
		}
		r.st = nil
	}
	if err := os.RemoveAll(r.dir); err != nil && first == nil {
		first = err
	}
	return first
}

// measure runs the timed rounds and everything that follows them.
func (r *run) measure(seconds float64) error {
	res := r.res
	if r.tr != nil {
		r.tr.reset()
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	mallocs, cpu, steal := ms.Mallocs, cpuSeconds(), stolenSeconds()
	res.cache[0], res.tele[0] = r.st.CacheStats(), r.st.telemetry()
	if r.pipe != nil {
		res.ingest[0] = r.pipe.Telemetry().Snapshot()
	}

	// Read rounds replay the fixed list Q and are repeated until the time
	// is used. Rounds with writes each get an equal share of it: ingest rounds
	// put a fixed number of points and are cut off there, mixed rounds last
	// that long, so a store that stalls reads as a low number and not as a
	// hang.
	budget := time.Duration(seconds * float64(time.Second))
	roundLen := budget / time.Duration(r.cfg.rounds)
	start := time.Now()
	for n := 0; n < r.cfg.rounds || (r.wl.kind == kindRead && time.Since(start) < budget); n++ {
		if n > 0 {
			runtime.GC()
		}
		var ops int64
		var wall time.Duration
		switch r.wl.kind {
		case kindRead:
			ops, wall = r.readRound(r.st.ShardedEngine, res, r.recorder())
		case kindIngest:
			ops, wall = r.ingestRound(roundLen, int64(ingestPutsPerS*roundLen.Seconds()), true)
		case kindMixed:
			ops, wall = r.mixedRound(roundLen)
		}
		res.ops += ops
		res.wall += wall
		res.roundOpPerS = append(res.roundOpPerS, float64(ops)/wall.Seconds())
	}

	if r.wl.kind == kindRead {
		res.settled = settledLatencies(res.lat, len(r.d.rects))
	}
	res.lagEnd = r.st.maxLag()
	res.cache[1], res.tele[1] = r.st.CacheStats(), r.st.telemetry()
	if r.pipe != nil {
		res.ingest[1] = r.pipe.Telemetry().Snapshot()
	}
	runtime.ReadMemStats(&ms)
	res.mallocs, res.cpuSeconds = ms.Mallocs-mallocs, cpuSeconds()-cpu
	res.stealFrac = per(stolenSeconds()-steal, time.Since(start).Seconds()*float64(runtime.NumCPU()))

	for _, p := range r.prods {
		res.lat = append(res.lat, p.lat...)
		res.ackedPuts += p.acked
		res.mergeLoad(&p.load)
	}
	if w := r.writer; w != nil {
		res.ackedPuts, res.late = w.acked, w.late
		res.userBytes += w.acked * userBytes
		res.mergeLoad(&w.load)
	}
	if r.tr != nil {
		res.spans = append(res.spans, r.tr.rec.snapshot()...)
		res.vfsRead, res.vfsWritten = r.tr.fs.readBytes.Load(), r.tr.fs.writeBytes.Load()
		res.replEntries = r.tr.transport.entries.Load()
	}
	if r.pipe != nil {
		err := r.pipe.Close()
		r.pipe = nil
		if err != nil {
			res.fail("ingest pipeline: %v", err)
		}
	}
	// The directory is measured once the store has been synced and closed:
	// counted while it runs, a compaction in flight adds its half-written
	// output, or inputs it is about to delete, and the ratio jumps by a
	// third. Everything after this point reads the directory reopened solo,
	// uncached and untraced, so it also checks that what was acked is there
	// after a reopen.
	if err := r.st.Sync(); err != nil {
		return err
	}
	err := r.st.Close()
	r.st = nil
	if err != nil {
		return err
	}
	if res.diskBytes, err = treeBytes(r.dir); err != nil {
		return err
	}
	if r.st, err = openStore(r.dir, r.c, storeOptions{}, nil); err != nil {
		return err
	}
	return r.verify()
}

// settledLatencies returns, for each query of Q, the 10th percentile of the
// latencies it had over the rounds. The sandbox disturbs a varying share of
// the samples — a query that takes 22 µs takes 33 µs in the same run a third
// to a half of the time — so a query's median wanders with that share from
// run to run, while its low percentile is the undisturbed latency and
// repeats. The rounds replay the same list, which is what gives every query
// enough samples to tell the two apart.
func settledLatencies(lat []time.Duration, queries int) []float64 {
	rounds := len(lat) / queries
	settled := make([]float64, queries)
	samples := make([]time.Duration, rounds)
	for q := range settled {
		for r := range samples {
			samples[r] = lat[r*queries+q]
		}
		settled[q] = quantile(samples, 0.1)
	}
	return settled
}

// load is what a load-generating goroutine counts on its own, merged into
// the result once the goroutine has stopped.
type load struct {
	attempted int64
	failures  []string
	spans     []span
}

func (l *load) fail(format string, args ...any) {
	l.failures = append(l.failures, fmt.Sprintf(format, args...))
}

func (r *result) mergeLoad(l *load) {
	r.attempted += l.attempted
	for _, f := range l.failures {
		r.fail("%s", f)
	}
	r.spans = append(r.spans, l.spans...)
}

// readRound replays Q once on s. With a nil res it is the untimed pass of
// set-up, which records how many records each query returns on the
// preloaded store; timed passes hold every query to that.
func (r *run) readRound(s *onion.ShardedEngine, res *result, rec *recorder) (int64, time.Duration) {
	start := time.Now()
	for i := range r.d.rects {
		r.query(s, i, res, rec)
	}
	return int64(len(r.d.rects)), time.Since(start)
}

// query runs query i of Q as one op.
func (r *run) query(s *onion.ShardedEngine, i int, res *result, rec *recorder) {
	rect := r.d.rects[i]
	if rec != nil {
		// The planner runs inside QueryAppend, where only the program
		// could time it. The traced run times the same call on the same
		// rectangle here, just before the op, and books it as its child.
		r.opID++
		t0 := rec.now()
		r.plan, _ = ranges.DecomposeAppend(r.c, rect, 0, r.plan)
		rec.add(spanPlan, r.opID, t0, rec.now())
		rec.cur.Store(r.opID)
	}
	t0 := time.Now()
	var st onion.ShardedQueryStats
	var err error
	r.dst, st, err = s.QueryAppend(r.dst[:0], rect)
	lat := time.Since(t0)
	if rec != nil {
		rec.cur.Store(0)
		end := rec.now()
		rec.add(spanOp, r.opID, end-int64(lat), end)
	}
	if res == nil {
		r.expect[i] = len(r.dst)
		return
	}
	res.attempted++
	res.lat = append(res.lat, lat)
	res.q.add(&st)
	switch {
	case err != nil:
		res.fail("query %v: %v", rect, err)
	case r.wl.kind == kindMixed:
		// Puts only add cells, so a query beside the writer returns at
		// least D's cells, and nothing outside its rectangle.
		if len(r.dst) < r.expect[i] {
			res.fail("query %v: %d records, D alone has %d there", rect, len(r.dst), r.expect[i])
		}
		for j := range r.dst {
			if !rect.Contains(r.dst[j].Point) {
				res.fail("query %v: returned %v", rect, r.dst[j].Point)
				break
			}
		}
	case len(r.dst) != r.expect[i]:
		res.fail("query %v: %d records, %d in the warm-up round", rect, len(r.dst), r.expect[i])
	}
}

// producer is one closed-loop load generator of ingest-*: it keeps up to
// window puts outstanding and times each from PutAsync to its ack.
type producer struct {
	load
	pipe *onion.IngestPipeline
	st   *stream
	rec  *recorder
	opID uint32

	pending    [window]pendingPut
	head, n    int
	lat        []time.Duration
	acked      int64 // in timed rounds
	roundAcked int64
}

type pendingPut struct {
	h     *onion.IngestHandle
	start time.Time
}

// run sends n puts, or as many as the deadline allows, and returns once all
// of them are acked.
func (p *producer) run(ctx context.Context, deadline time.Time, n int64, timed bool) {
	pt := geom.Point{0, 0}
	p.roundAcked = 0
	for sent := int64(0); sent < n && ctx.Err() == nil; sent++ {
		now := time.Now()
		if now.After(deadline) {
			break
		}
		if p.n == window {
			p.waitOldest(ctx, timed)
		}
		var payload uint64
		pt[0], pt[1], payload = p.st.point()
		h, err := p.pipe.PutAsync(ctx, pt, payload)
		if err != nil {
			p.attempted++
			p.fail("put %v: %v", pt, err)
			continue
		}
		p.pending[(p.head+p.n)%window] = pendingPut{h, now}
		p.n++
	}
	for p.n > 0 {
		p.waitOldest(ctx, timed)
	}
}

func (p *producer) waitOldest(ctx context.Context, timed bool) {
	put := p.pending[p.head]
	p.head, p.n = (p.head+1)%window, p.n-1
	err := put.h.Wait(ctx)
	lat := time.Since(put.start)
	if timed {
		p.attempted++
	}
	switch {
	case err != nil:
		p.fail("put: %v", err)
		return
	case lat > lateAck:
		p.fail("put acked after %v", lat)
		return
	}
	p.roundAcked++
	if !timed {
		return
	}
	p.acked++
	p.lat = append(p.lat, lat)
	if p.rec != nil {
		p.opID++
		end := p.rec.now()
		p.spans = append(p.spans,
			span{spanOp, p.opID, end - int64(lat), end},
			span{spanIngestAck, p.opID, end - int64(lat), end})
	}
}

// ingestRound has the producers send `puts` puts between them, stops them
// after dur if they are not done by then, and returns once every put they
// sent has been acked.
func (r *run) ingestRound(dur time.Duration, puts int64, timed bool) (int64, time.Duration) {
	start := time.Now()
	// No round may hang: a put not acked a minute after the round should
	// have ended is failed by its context.
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(dur+time.Minute))
	defer cancel()
	var wg sync.WaitGroup
	for _, p := range r.prods {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.run(ctx, start.Add(dur), puts/producers, timed)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	var ops int64
	for _, p := range r.prods {
		ops += p.roundAcked
	}
	r.res.userBytes += ops * userBytes
	return ops, wall
}

// mixedRound runs the reader and the open-loop writer side by side for
// dur. The round's ops are the reader's.
func (r *run) mixedRound(dur time.Duration) (int64, time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	ctx, cancel := context.WithDeadline(context.Background(), deadline.Add(time.Minute))
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		r.writer.run(ctx, start, deadline)
	}()
	var ops int64
	for time.Now().Before(deadline) {
		r.query(r.st.ShardedEngine, r.next, r.res, r.recorder())
		r.next = (r.next + 1) % len(r.d.rects)
		ops++
	}
	wall := time.Since(start)
	wg.Wait()
	return ops, wall
}

// openLoop is the writer of mixed. It sends puts on a fixed schedule,
// whatever the store does: put i of a round is due at start + i/rate, and
// its ack is timed from then. Between sends it polls the handles it holds,
// oldest first, so it needs no second goroutine; an ack is therefore seen
// up to one sleep (about a millisecond) after it happened, which matters
// only to the five-second limit.
type openLoop struct {
	load
	pipe  *onion.IngestPipeline
	st    *stream
	acked int64
	late  []time.Duration
	queue []sentPut
}

type sentPut struct {
	h   *onion.IngestHandle
	due time.Time
}

func (w *openLoop) ack(s sentPut, err error) {
	switch lat := time.Since(s.due); {
	case err != nil:
		w.fail("writer put: %v", err)
	case lat > lateAck:
		w.fail("writer put acked %v after it was due", lat)
	default:
		w.acked++
	}
}

func (w *openLoop) poll() {
	for len(w.queue) > 0 {
		select {
		case err := <-w.queue[0].h.Done():
			w.ack(w.queue[0], err)
			w.queue = w.queue[1:]
		default:
			return
		}
	}
}

func (w *openLoop) run(ctx context.Context, start, deadline time.Time) {
	const interval = time.Second / mixedPutsPerS
	pt := geom.Point{0, 0}
	for due := start; due.Before(deadline) && ctx.Err() == nil; due = due.Add(interval) {
		for now := time.Now(); now.Before(due); now = time.Now() {
			w.poll()
			time.Sleep(due.Sub(now))
		}
		var payload uint64
		pt[0], pt[1], payload = w.st.point()
		w.late = append(w.late, time.Since(due))
		w.attempted++
		h, err := w.pipe.PutAsync(ctx, pt, payload)
		if err != nil {
			w.fail("writer put %v: %v", pt, err)
			continue
		}
		w.queue = append(w.queue, sentPut{h, due})
		w.poll()
	}
	for _, s := range w.queue {
		w.ack(s, s.h.Wait(ctx))
	}
	w.queue = w.queue[:0]
}
