// Package ingest is the asynchronous write front-end of the storage
// stack: a bounded lock-free MPMC ring accepting Put/Delete ops from any
// number of producers, feeding a striped batcher — one stripe per shard,
// routed by curve key — that coalesces ops into per-shard batches
// (last-write-wins per key, emitted in ascending curve-key order) and
// submits each batch through Engine.PutBatch, where the whole batch rides
// one WAL group-commit fsync. Acknowledgements fan back to the producers
// through per-op completion handles.
//
// Backpressure is the contract, not an accident: the ring is the only
// elastic buffer, its capacity is fixed at construction, and a full ring
// either rejects immediately (Try*, ErrBackpressure) or blocks the
// producer until space frees or its context cancels. Memory is bounded by
// ring capacity × op size plus at most three partial batches per stripe
// (one accumulating in the router, one in the handoff channel, one in the
// submitter).
//
// Ordering: ops enqueued by one producer are applied in that producer's
// order for any single key (ring FIFO → router FIFO → per-stripe FIFO →
// sequential batch submission). Ops on different keys from different
// producers have no mutual order, exactly like concurrent Put calls.
package ingest

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/telemetry"
)

var (
	// ErrBackpressure reports a non-blocking enqueue rejected because the
	// ring is full: the pipeline is shedding load instead of growing. The
	// producer decides — retry, drop, or switch to the blocking form.
	ErrBackpressure = errors.New("ingest: ring full (backpressure)")
	// ErrClosed reports an enqueue after Close, or a producer unblocked by
	// shutdown while waiting for ring space.
	ErrClosed = errors.New("ingest: pipeline closed")
)

// Target is the batch sink the pipeline drains into: a striped write
// surface where each stripe accepts curve-key-sorted batches
// independently. The sharded service maps stripes onto its shards; a
// single engine is one stripe.
type Target interface {
	// Stripes is the number of independent batch sinks.
	Stripes() int
	// StripeOf routes a curve key to its stripe. Must be constant for the
	// pipeline's lifetime.
	StripeOf(key uint64) int
	// ApplyBatch durably applies one coalesced batch to stripe i. Called
	// sequentially per stripe, concurrently across stripes. The ops slice
	// is reused after the call returns.
	ApplyBatch(i int, ops []engine.BatchOp) error
}

// Config tunes a Pipeline. The zero value selects the defaults.
type Config struct {
	// Ring is the MPMC ring capacity, rounded up to a power of two
	// (default 8192). The ring is the pipeline's entire elastic buffer:
	// this is the backpressure threshold and the memory bound.
	Ring int
	// MaxBatch caps how many ops one submitted batch may hold (default
	// 1024). Larger batches amortize the WAL fsync further at the cost of
	// per-op ack latency under sustained load.
	MaxBatch int
}

func (c Config) withDefaults() Config {
	if c.Ring <= 0 {
		c.Ring = 8192
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 1024
	}
	return c
}

// op is one routed write in flight: the pre-computed curve key (routing
// and coalescing identity), the cloned point, and the completion handle.
type op struct {
	key uint64
	pt  geom.Point
	pay uint64
	del bool
	at  time.Time // enqueue time, for the ack-latency histogram
	h   *Handle
}

// Handle is the completion side of one enqueued op: Wait blocks until the
// op's batch commits (nil) or fails (the batch error), or ctx cancels.
// Each handle delivers exactly one outcome to exactly one waiter.
type Handle struct {
	ch chan error
}

// Wait blocks for the op's outcome. A ctx cancellation abandons the wait
// but not the op — it is still in flight and may commit.
func (h *Handle) Wait(ctx context.Context) error {
	select {
	case err := <-h.ch:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Done exposes the outcome channel for select loops; receiving from it is
// equivalent to Wait.
func (h *Handle) Done() <-chan error { return h.ch }

// Pipeline is the async ingest front-end. All enqueue methods are safe
// for concurrent use; Close may run concurrently with waiters but not
// with enqueuers (stop producers first — any op racing past the final
// drain is completed with ErrClosed on a best-effort sweep).
type Pipeline struct {
	c      curve.Curve
	target Target
	cfg    Config
	ring   *ring

	reg *telemetry.Registry
	tel *ingestTelemetry

	pend     [][]op      // router-owned per-stripe accumulation
	handoff  []chan []op // router → per-stripe submitter, capacity 1
	batchBuf sync.Pool   // recycled []op batch buffers

	enqueued  atomic.Uint64
	completed atomic.Uint64
	doneSig   *signal // broadcast on completion progress, for Drain waiters

	closed  atomic.Bool
	stop    chan struct{}
	routerD chan struct{}
	workers sync.WaitGroup

	errMu    sync.Mutex
	firstErr error
}

// New builds and starts a pipeline clustered by c over the given target.
func New(c curve.Curve, target Target, cfg Config) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	n := target.Stripes()
	if n < 1 {
		return nil, fmt.Errorf("ingest: target has %d stripes", n)
	}
	p := &Pipeline{
		c:       c,
		target:  target,
		cfg:     cfg,
		ring:    newRing(cfg.Ring),
		reg:     telemetry.NewRegistry(),
		pend:    make([][]op, n),
		handoff: make([]chan []op, n),
		stop:    make(chan struct{}),
		routerD: make(chan struct{}),
		doneSig: newSignal(),
	}
	p.batchBuf.New = func() any { return make([]op, 0, cfg.MaxBatch) }
	p.tel = newIngestTelemetry(p.reg)
	p.registerSampledTelemetry()
	for i := 0; i < n; i++ {
		p.pend[i] = p.batchBuf.Get().([]op)
		p.handoff[i] = make(chan []op, 1)
		p.workers.Add(1)
		go p.submitter(i)
	}
	go p.router()
	return p, nil
}

// NewEngine builds a pipeline over a single engine: one stripe, every
// batch through Engine.PutBatch.
func NewEngine(e *engine.Engine, cfg Config) (*Pipeline, error) {
	return New(e.Curve(), engineTarget{e}, cfg)
}

type engineTarget struct{ e *engine.Engine }

func (t engineTarget) Stripes() int                                 { return 1 }
func (t engineTarget) StripeOf(uint64) int                          { return 0 }
func (t engineTarget) ApplyBatch(_ int, ops []engine.BatchOp) error { return t.e.PutBatch(ops) }

// Put enqueues a put and blocks until it is acknowledged — batched,
// committed and durable under the target's WAL rules. Under backpressure
// it blocks for ring space; ctx bounds the whole wait.
func (p *Pipeline) Put(ctx context.Context, pt geom.Point, payload uint64) error {
	return p.putWait(ctx, pt, payload, false)
}

// Delete enqueues a tombstone and blocks until it is acknowledged.
func (p *Pipeline) Delete(ctx context.Context, pt geom.Point) error {
	return p.putWait(ctx, pt, 0, true)
}

func (p *Pipeline) putWait(ctx context.Context, pt geom.Point, payload uint64, del bool) error {
	h, err := p.enqueue(ctx, pt, payload, del, true)
	if err != nil {
		return err
	}
	select {
	case err := <-h.ch:
		return err
	case <-ctx.Done():
		return ctx.Err()
	}
}

// PutAsync enqueues a put (blocking for ring space; ctx bounds the wait)
// and returns immediately with the completion handle.
func (p *Pipeline) PutAsync(ctx context.Context, pt geom.Point, payload uint64) (*Handle, error) {
	return p.enqueue(ctx, pt, payload, false, true)
}

// DeleteAsync enqueues a tombstone asynchronously.
func (p *Pipeline) DeleteAsync(ctx context.Context, pt geom.Point) (*Handle, error) {
	return p.enqueue(ctx, pt, 0, true, true)
}

// TryPut enqueues a put without blocking: a full ring returns
// ErrBackpressure immediately — the open-loop load-shedding form.
func (p *Pipeline) TryPut(pt geom.Point, payload uint64) (*Handle, error) {
	return p.enqueue(context.Background(), pt, payload, false, false)
}

func (p *Pipeline) enqueue(ctx context.Context, pt geom.Point, payload uint64, del, block bool) (*Handle, error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	if !p.c.Universe().Contains(pt) {
		return nil, fmt.Errorf("%w: %v in %v", engine.ErrPoint, pt, p.c.Universe())
	}
	o := op{
		key: p.c.Index(pt),
		pt:  pt.Clone(), // the caller may reuse pt the moment we return
		pay: payload,
		del: del,
		at:  time.Now(),
		h:   &Handle{ch: make(chan error, 1)},
	}
	if p.ring.tryEnqueue(o) {
		p.enqueued.Add(1)
		p.tel.enqueued.Inc()
		p.tel.enqueueWaitUS.Record(0)
		return o.h, nil
	}
	if !block {
		p.tel.rejects.Inc()
		return nil, ErrBackpressure
	}
	// Park until a slot frees: register as a waiter, arm the space
	// signal, re-try, and only then block. Arming before the re-try
	// closes the lost-wakeup window — a dequeue after our failed try
	// sees the waiter registration and broadcasts the armed generation.
	waitStart := time.Now()
	p.ring.space.waiters.Add(1)
	defer p.ring.space.waiters.Add(-1)
	for {
		wake := p.ring.space.arm()
		if p.closed.Load() {
			return nil, ErrClosed
		}
		if p.ring.tryEnqueue(o) {
			p.enqueued.Add(1)
			p.tel.enqueued.Inc()
			p.tel.enqueueWaitUS.Record(uint64(time.Since(waitStart).Microseconds()))
			return o.h, nil
		}
		select {
		case <-ctx.Done():
			p.tel.rejects.Inc()
			return nil, ctx.Err()
		case <-p.stop:
			return nil, ErrClosed
		case <-wake:
		}
	}
}

// router drains the ring in arrival order, accumulates ops into
// per-stripe pending buffers, and hands full batches to the stripe
// submitters. When the ring momentarily empties it flushes every partial
// batch — batching adapts to load exactly like the WAL group commit:
// deeper queues make bigger batches, an idle pipeline acks immediately.
func (p *Pipeline) router() {
	defer close(p.routerD)
	var o op
	for {
		for p.ring.tryDequeue(&o) {
			p.route(o)
		}
		p.flushPending()
		select {
		case <-p.stop:
			// Producers have stopped: drain whatever is left and exit.
			for p.ring.tryDequeue(&o) {
				p.route(o)
			}
			p.flushPending()
			return
		case <-p.ring.items:
		}
	}
}

func (p *Pipeline) route(o op) {
	st := p.target.StripeOf(o.key)
	p.pend[st] = append(p.pend[st], o)
	if len(p.pend[st]) >= p.cfg.MaxBatch {
		p.dispatch(st)
	}
}

func (p *Pipeline) flushPending() {
	for st := range p.pend {
		if len(p.pend[st]) > 0 {
			p.dispatch(st)
		}
	}
}

// dispatch hands stripe st's pending batch to its submitter, blocking if
// one batch is already queued behind the in-flight one — that is the
// point where ring backpressure starts building toward the producers.
func (p *Pipeline) dispatch(st int) {
	batch := p.pend[st]
	p.pend[st] = p.batchBuf.Get().([]op)[:0]
	p.handoff[st] <- batch
}

// submitter runs stripe st's batches sequentially: coalesce, sort, one
// ApplyBatch, fan the outcome back to every handle in the batch —
// including the ops coalesced away, which the surviving newest op
// subsumes.
func (p *Pipeline) submitter(st int) {
	defer p.workers.Done()
	var ops []engine.BatchOp
	for batch := range p.handoff[st] {
		ops = p.runBatch(batch, ops)
		p.batchBuf.Put(batch[:0])
	}
}

func (p *Pipeline) runBatch(batch []op, ops []engine.BatchOp) []engine.BatchOp {
	// Stable sort by curve key: equal keys keep arrival order, so "the
	// last op wins" below is last in producer order; distinct keys come
	// out in curve order, which is exactly the order the memtable and a
	// future flush want them in.
	slices.SortStableFunc(batch, func(a, b op) int {
		switch {
		case a.key < b.key:
			return -1
		case a.key > b.key:
			return 1
		}
		return 0
	})
	ops = ops[:0]
	coalesced := 0
	for i := range batch {
		if i+1 < len(batch) && batch[i+1].key == batch[i].key {
			coalesced++ // superseded by a newer op on the same key
			continue
		}
		ops = append(ops, engine.BatchOp{Point: batch[i].pt, Payload: batch[i].pay, Del: batch[i].del})
	}
	err := p.target.ApplyBatch(p.target.StripeOf(batch[0].key), ops)
	if err != nil {
		p.noteErr(err)
	}
	now := time.Now()
	for i := range batch {
		batch[i].h.ch <- err
		p.tel.ackLatencyUS.Record(uint64(now.Sub(batch[i].at).Microseconds()))
		batch[i] = op{} // release the point and handle
	}
	p.completed.Add(uint64(len(batch)))
	p.doneSig.notify()
	tel := p.tel
	tel.batches.Inc()
	tel.batchOps.Record(uint64(len(batch)))
	tel.coalesced.Add(uint64(coalesced))
	if err != nil {
		tel.ackErrors.Add(uint64(len(batch)))
	} else {
		tel.acked.Add(uint64(len(batch)))
	}
	return ops
}

func (p *Pipeline) noteErr(err error) {
	p.errMu.Lock()
	if p.firstErr == nil {
		p.firstErr = err
	}
	p.errMu.Unlock()
}

// Err returns the first batch-apply error the pipeline has seen (sticky;
// nil while every batch has committed). Individual outcomes travel on the
// handles — this is the cheap service-level health probe.
func (p *Pipeline) Err() error {
	p.errMu.Lock()
	defer p.errMu.Unlock()
	return p.firstErr
}

// Drain blocks until every op enqueued so far has been acknowledged (or
// failed). It is a quiescence barrier: meaningful only once concurrent
// producers have stopped, since later enqueues extend the goal.
func (p *Pipeline) Drain(ctx context.Context) error {
	p.doneSig.waiters.Add(1)
	defer p.doneSig.waiters.Add(-1)
	for {
		wake := p.doneSig.arm()
		if p.completed.Load() >= p.enqueued.Load() {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-wake:
		}
	}
}

// QueueDepth approximates how many ops are waiting in the ring right now.
func (p *Pipeline) QueueDepth() int { return p.ring.len() }

// Close stops the pipeline: new enqueues fail with ErrClosed, everything
// already accepted is drained, batched and submitted, every outstanding
// handle is completed, and the stripe submitters exit. Close returns the
// first batch-apply error of the pipeline's lifetime (Err), so a fully
// clean run closes nil. Producers must stop before Close; an enqueue
// racing past the final drain is completed with ErrClosed best-effort.
func (p *Pipeline) Close() error {
	if p.closed.Swap(true) {
		return ErrClosed
	}
	close(p.stop)
	<-p.routerD
	for st := range p.handoff {
		close(p.handoff[st])
	}
	p.workers.Wait()
	// Best-effort sweep for enqueue-after-drain stragglers: nothing will
	// ever consume them, so fail their handles rather than strand a
	// waiter.
	var o op
	for p.ring.tryDequeue(&o) {
		o.h.ch <- ErrClosed
		p.completed.Add(1)
	}
	p.doneSig.notify()
	return p.Err()
}
