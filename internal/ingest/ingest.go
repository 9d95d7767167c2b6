// Package ingest is the asynchronous write front-end of the storage
// stack: Put/Delete ops from any number of producers go into one queue
// per stripe — one stripe per shard, routed by curve key — whose
// submitter coalesces them into batches (last-write-wins per key, emitted
// in ascending curve-key order) and submits each batch through
// Engine.PutBatch, where the whole batch rides one WAL fsync.
// Acknowledgements fan back to the producers through per-op completion
// handles.
//
// This is the store's one batching layer for durable writes: an engine
// has one writer at a time, so concurrent synchronous Put callers each
// pay their own fsync, while the pipeline's one submitter per stripe
// hands each engine a whole coalesced batch per fsync.
//
// Backpressure is the contract, not an accident: every accepted op holds
// one unit of a fixed in-flight budget until it is acked, and a full
// budget either rejects immediately (Try*, ErrBackpressure) or blocks the
// producer until an ack frees a unit or its context cancels. Memory is
// bounded by the budget: at most that many ops are queued or in a batch.
//
// Ordering: ops enqueued by one producer are applied in that producer's
// order for any single key (per-stripe FIFO → sequential batch
// submission). Ops on different keys from different producers have no
// mutual order, exactly like concurrent Put calls.
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
	// in-flight budget is spent: the pipeline is shedding load instead of
	// growing. The producer decides — retry, drop, or switch to the
	// blocking form.
	ErrBackpressure = errors.New("ingest: in-flight budget full (backpressure)")
	// ErrClosed reports an enqueue after Close, or a producer unblocked by
	// shutdown while waiting for budget.
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

// Config tunes a Pipeline. It has no exported fields: every caller runs
// the defaults, and in-package tests shrink the unexported bounds.
type Config struct {
	// capacity is the in-flight budget: ops accepted and not yet acked
	// (default 8192). It is both the backpressure threshold and the
	// memory bound.
	capacity int
	// maxBatch caps how many ops one submitted batch may hold (default
	// 1024).
	maxBatch int
}

func (c Config) withDefaults() Config {
	if c.capacity <= 0 {
		c.capacity = 8192
	}
	if c.maxBatch <= 0 {
		c.maxBatch = 1024
	}
	return c
}

// op is one routed write in flight: the engine op, keyed at enqueue (its
// key is the write's identity for routing and coalescing), and the
// completion handle.
type op struct {
	engine.BatchOp
	at time.Time // enqueue time, for the ack-latency histogram
	h  *Handle
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

// Pipeline is the async ingest front-end. All methods are safe for
// concurrent use, Close included: an enqueue racing Close either lands
// before the final drain or returns ErrClosed.
type Pipeline struct {
	c       curve.Curve
	target  Target
	cfg     Config
	stripes []stripe

	reg *telemetry.Registry
	tel *ingestTelemetry

	// inflight counts ops accepted and not yet acked; it never exceeds
	// cfg.capacity. space is notified whenever it drops, waking producers
	// parked on a full budget and Drain waiters.
	inflight atomic.Int64
	space    *signal

	closed  atomic.Bool
	workers sync.WaitGroup

	errMu    sync.Mutex
	firstErr error
}

// stripe is one target stripe's FIFO queue, consumed by its submitter.
type stripe struct {
	mu     sync.Mutex
	cond   sync.Cond // signalled on append and on close
	pend   []op
	closed bool
}

// New builds and starts a pipeline clustered by c over the given target.
func New(c curve.Curve, target Target, cfg Config) (*Pipeline, error) {
	n := target.Stripes()
	if n < 1 {
		return nil, fmt.Errorf("ingest: target has %d stripes", n)
	}
	p := &Pipeline{
		c:       c,
		target:  target,
		cfg:     cfg.withDefaults(),
		stripes: make([]stripe, n),
		reg:     telemetry.NewRegistry(),
		space:   newSignal(),
	}
	p.tel = newIngestTelemetry(p.reg)
	p.reg.GaugeFunc("ingest_inflight_ops", p.inflight.Load)
	for i := range p.stripes {
		p.stripes[i].cond.L = &p.stripes[i].mu
		p.workers.Add(1)
		go p.submitter(i)
	}
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
// it blocks for in-flight budget; ctx bounds the whole wait.
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

// PutAsync enqueues a put (blocking for in-flight budget; ctx bounds the
// wait) and returns immediately with the completion handle.
func (p *Pipeline) PutAsync(ctx context.Context, pt geom.Point, payload uint64) (*Handle, error) {
	return p.enqueue(ctx, pt, payload, false, true)
}

// DeleteAsync enqueues a tombstone asynchronously.
func (p *Pipeline) DeleteAsync(ctx context.Context, pt geom.Point) (*Handle, error) {
	return p.enqueue(ctx, pt, 0, true, true)
}

// TryPut enqueues a put without blocking: a full budget returns
// ErrBackpressure immediately — the open-loop load-shedding form.
func (p *Pipeline) TryPut(pt geom.Point, payload uint64) (*Handle, error) {
	return p.enqueue(context.Background(), pt, payload, false, false)
}

func (p *Pipeline) enqueue(ctx context.Context, pt geom.Point, payload uint64, del, block bool) (*Handle, error) {
	if p.closed.Load() {
		return nil, ErrClosed
	}
	key, err := engine.KeyOf(p.c, pt)
	if err != nil {
		return nil, err
	}
	o := op{
		BatchOp: engine.BatchOp{Key: key, Payload: payload, Del: del},
		at:      time.Now(),
		h:       &Handle{ch: make(chan error, 1)},
	}
	if err := p.reserve(ctx, block); err != nil {
		return nil, err
	}
	st := &p.stripes[p.target.StripeOf(o.Key)]
	st.mu.Lock()
	if st.closed {
		st.mu.Unlock()
		p.release(1)
		return nil, ErrClosed
	}
	st.pend = append(st.pend, o)
	st.mu.Unlock()
	st.cond.Signal()
	p.tel.enqueued.Inc()
	p.tel.enqueueWaitUS.Record(uint64(time.Since(o.at).Microseconds()))
	return o.h, nil
}

// reserve takes one unit of the in-flight budget, parking until an ack
// frees one when block is set.
func (p *Pipeline) reserve(ctx context.Context, block bool) error {
	if p.tryReserve() {
		return nil
	}
	if !block {
		p.tel.rejects.Inc()
		return ErrBackpressure
	}
	// Register as a waiter, arm the space signal, re-try, and only then
	// block. Arming before the re-try closes the lost-wakeup window — a
	// release after our failed try sees the waiter registration and
	// broadcasts the armed generation. Close notifies the same signal.
	p.space.waiters.Add(1)
	defer p.space.waiters.Add(-1)
	for {
		wake := p.space.arm()
		if p.closed.Load() {
			return ErrClosed
		}
		if p.tryReserve() {
			return nil
		}
		select {
		case <-ctx.Done():
			p.tel.rejects.Inc()
			return ctx.Err()
		case <-wake:
		}
	}
}

func (p *Pipeline) tryReserve() bool {
	for {
		n := p.inflight.Load()
		if n >= int64(p.cfg.capacity) {
			return false
		}
		if p.inflight.CompareAndSwap(n, n+1) {
			return true
		}
	}
}

func (p *Pipeline) release(n int) {
	p.inflight.Add(-int64(n))
	p.space.notify()
}

// submitter runs stripe i's batches sequentially: take up to maxBatch
// queued ops, coalesce, sort, one ApplyBatch, fan the outcome back to
// every handle in the batch — including the ops coalesced away, which
// the surviving newest op subsumes. Batching adapts to load: while
// ApplyBatch waits on its fsync the next batch accumulates, so deeper
// queues make bigger batches and an idle pipeline acks immediately. It
// exits once the stripe is closed and empty.
func (p *Pipeline) submitter(i int) {
	defer p.workers.Done()
	st := &p.stripes[i]
	var batch []op
	var ops []engine.BatchOp
	for {
		st.mu.Lock()
		for len(st.pend) == 0 && !st.closed {
			st.cond.Wait()
		}
		if len(st.pend) == 0 {
			st.mu.Unlock()
			return
		}
		if len(st.pend) <= p.cfg.maxBatch {
			batch, st.pend = st.pend, batch[:0]
		} else {
			batch = append(batch[:0], st.pend[:p.cfg.maxBatch]...)
			n := copy(st.pend, st.pend[p.cfg.maxBatch:])
			clear(st.pend[n:])
			st.pend = st.pend[:n]
		}
		st.mu.Unlock()
		ops = p.runBatch(i, batch, ops)
	}
}

func (p *Pipeline) runBatch(st int, batch []op, ops []engine.BatchOp) []engine.BatchOp {
	// Stable sort by curve key: equal keys keep arrival order, so "the
	// last op wins" below is last in producer order; distinct keys come
	// out in curve order, which is exactly the order the memtable and a
	// future flush want them in.
	slices.SortStableFunc(batch, func(a, b op) int {
		switch {
		case a.Key < b.Key:
			return -1
		case a.Key > b.Key:
			return 1
		}
		return 0
	})
	ops = ops[:0]
	coalesced := 0
	for i := range batch {
		if i+1 < len(batch) && batch[i+1].Key == batch[i].Key {
			coalesced++ // superseded by a newer op on the same key
			continue
		}
		ops = append(ops, batch[i].BatchOp)
	}
	err := p.target.ApplyBatch(st, ops)
	if err != nil {
		p.noteErr(err)
	}
	now := time.Now()
	for i := range batch {
		batch[i].h.ch <- err
		p.tel.ackLatencyUS.Record(uint64(now.Sub(batch[i].at).Microseconds()))
		batch[i] = op{} // release the handle
	}
	p.release(len(batch))
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
	p.space.waiters.Add(1)
	defer p.space.waiters.Add(-1)
	for {
		wake := p.space.arm()
		if p.inflight.Load() == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-wake:
		}
	}
}

// Close stops the pipeline: new enqueues fail with ErrClosed, everything
// already accepted is batched and submitted, every outstanding handle is
// completed, and the stripe submitters exit. Close returns the first
// batch-apply error of the pipeline's lifetime (Err), so a fully clean
// run closes nil.
func (p *Pipeline) Close() error {
	if p.closed.Swap(true) {
		return ErrClosed
	}
	p.space.notify() // parked producers re-check closed
	for i := range p.stripes {
		st := &p.stripes[i]
		st.mu.Lock()
		st.closed = true
		st.mu.Unlock()
		st.cond.Signal()
	}
	p.workers.Wait()
	return p.Err()
}
