package engine

import (
	"fmt"
	"runtime"
	"time"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
)

// BatchOp is one logical write inside a PutBatch: a put of (Key,
// Payload) or, with Del set, a blind tombstone at Key. Key is the curve
// key of the write's point (KeyOf): the engine stores and logs keys, and
// never evaluates the curve on the write path. PutBatch does not retain
// the ops; callers may reuse them.
type BatchOp struct {
	Key     uint64
	Payload uint64
	Del     bool
}

// KeyOf is the write edge: it checks that p is a cell of c's universe and
// returns its curve key, or an ErrPoint error. Every point that enters the
// store becomes a key here, once.
func KeyOf(c curve.Curve, p geom.Point) (uint64, error) {
	if !c.Universe().Contains(p) {
		return 0, fmt.Errorf("%w: %v in %v", ErrPoint, p, c.Universe())
	}
	return c.Index(p), nil
}

// PutBatch is the engine's one write body and its one writer (Put and
// Delete are one-op batches). It holds the WAL mutex, and no other engine
// lock, for the whole batch, so queries run beside it: the ops take one
// contiguous sequence-number interval and go into the log, in that order,
// as one frame; with Options.SyncWrites one flush and one fsync (and the
// CommitHook's one Append and quorum round) cover the batch; then the ops
// enter the memtable and become visible to queries together. Log order,
// sequence order and memtable order therefore agree, and a query
// snapshot, like recovery, holds whole batches only. Concurrent callers
// serialize — each synchronous batch pays its own fsync — so durable
// batching across many producers is the ingest pipeline's job
// (NewIngest), which hands each engine one large batch at a time.
//
// Acknowledgement is all-or-nothing: a nil return means every op is
// acknowledged under the same durability rules. On error no op is
// acknowledged and the batch's durability is indeterminate — but its
// one frame is CRC-guarded, so recovery keeps the whole batch or none
// of it, never a torn part. A failed batch leaves the engine ReadOnly
// before the next writer can take the WAL mutex, so nothing is appended
// behind a log whose tail is unknown.
//
// An op whose Key lies outside the curve's key space rejects the whole
// batch before anything is written.
func (e *Engine) PutBatch(ops []BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	for i := range ops {
		if n := e.c.Universe().Size(); ops[i].Key >= n {
			return fmt.Errorf("%w: key %d outside key space [0,%d)", ErrPoint, ops[i].Key, n)
		}
	}
	if Health(e.health.state.Load()) >= ReadOnly {
		return e.readOnlyErr()
	}
	e.walMu.Lock()
	defer e.walMu.Unlock()
	w := e.wal
	if w == nil {
		return ErrClosed
	}
	if Health(e.health.state.Load()) >= ReadOnly {
		// The batch this one queued behind failed.
		return e.readOnlyErr()
	}
	prevN := w.Bytes()
	firstSeq := e.seq.Load() + 1
	err := w.append(ops)
	e.walBytes.Store(w.Bytes())
	if err == nil {
		e.seq.Add(uint64(len(ops)))
		if e.opts.SyncWrites {
			err = e.syncLocked(w, len(ops))
		}
	}
	if err != nil {
		// The log's tail is unknowable (failed append or fsync), or the
		// batch is durable here but stranded off a replication quorum:
		// acknowledging any further write would be lying about
		// durability. Degrade to ReadOnly — sticky until a guarded
		// recovery — and surface the transition on this error, cause
		// attached.
		e.degrade(ReadOnly, err)
		return fmt.Errorf("%w: %w", ErrReadOnly, err)
	}
	mem := e.mem
	for i := range ops {
		mem.put(ops[i].Key, ops[i].Payload, firstSeq+uint64(i), ops[i].Del)
	}
	e.visible.Store(e.seq.Load())
	if tel := e.tel; tel != nil {
		tel.walAppends.Add(uint64(len(ops)))
		tel.walAppendBytes.Add(uint64(w.Bytes() - prevN))
	}
	if e.opts.FlushEntries > 0 && mem.entries.Load() >= int64(e.opts.FlushEntries) {
		select {
		case e.bg <- struct{}{}:
		default:
		}
	}
	return nil
}

// syncLocked (walMu held) makes the frame of the batch just appended
// durable: one flush, the hook's Append, one fsync, then the hook's
// Commit. A failed fsync latches the log failed; a failed Commit leaves
// the log usable (the batch is durable locally) and fails only the batch.
func (e *Engine) syncLocked(w *wal, ops int) error {
	// Commit window: yield once before the disk barrier. No other writer
	// can join the batch (this one holds walMu); the yield is for the
	// readers. Measured on the benchmark's mixed workload (2 vCPUs, six
	// alternating pairs), dropping it costs 30% of query throughput
	// (2 582 vs 3 670 q/s) and 44% of engine time per query, although the
	// ingest batches grow (9.2 vs 7.2 ops). The likely cause: goroutines
	// queued on this P — queries among them — would otherwise wait while
	// this thread blocks in write and fsync, until the runtime hands the
	// P off.
	runtime.Gosched()

	if err := w.Flush(); err != nil {
		return walErr(err)
	}
	if h := e.hook; h != nil {
		// Overlap the replicas' barriers with ours: the batch is fully
		// framed in the OS buffer, so the hook can start shipping it now
		// and Commit below finds the quorum acks already (or nearly) in
		// place.
		h.Append(e.seq.Load(), w.enc)
	}
	tel := e.tel
	var start time.Time
	if tel != nil {
		start = time.Now()
	}
	if err := w.Fsync(); err != nil {
		w.Fail(err)
		return walErr(err)
	}
	if tel != nil {
		tel.walFsyncs.Inc()
		tel.walFsyncUS.Record(uint64(time.Since(start).Microseconds()))
		tel.walBatch.Record(uint64(ops))
	}
	if h := e.hook; h != nil {
		// The batch is acknowledged only once it is also durable on a
		// quorum: one round-trip per batch, like the one disk barrier.
		return h.Commit(e.seq.Load())
	}
	return nil
}

// Curve returns the curve the engine clusters by — the one passed to
// Open. Ingest pipelines use it to route ops by curve key before the
// engine sees them.
func (e *Engine) Curve() curve.Curve { return e.c }
