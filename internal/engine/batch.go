package engine

import (
	"errors"
	"fmt"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
)

// BatchOp is one logical write inside a PutBatch: a put of (Point,
// Payload) or, with Del set, a blind tombstone at Point. PutBatch does
// not retain the ops or their Points; callers may reuse both.
type BatchOp struct {
	Point   geom.Point
	Payload uint64
	Del     bool
}

// PutBatch is the engine's one write body (Put and Delete are one-op
// batches). It applies ops as one WAL unit: every op is framed into the
// log under a single WAL-mutex hold — so the batch occupies one
// contiguous sequence-number interval in log order — and, with
// Options.SyncWrites, the whole batch rides one group-commit rendezvous,
// amortizing a single fsync over every op (and over any concurrent
// writers that landed in the same commit window). The memtable inserts
// happen outside the WAL mutex, so concurrent writers contend only on
// their keys' memtable shards.
//
// Acknowledgement is all-or-nothing: a nil return means every op is
// acknowledged under the same durability rules. On error no op is
// acknowledged; ops already framed before the failure have indeterminate
// durability — each frame is CRC-guarded, so recovery keeps a clean
// per-op prefix of the batch and never a torn op.
//
// An op whose Point lies outside the universe rejects the whole batch
// before anything is written.
func (e *Engine) PutBatch(ops []BatchOp) error {
	if len(ops) == 0 {
		return nil
	}
	for i := range ops {
		if !e.c.Universe().Contains(ops[i].Point) {
			return fmt.Errorf("%w: %v in %v", ErrPoint, ops[i].Point, e.c.Universe())
		}
	}
	if Health(e.health.state.Load()) >= ReadOnly {
		return e.readOnlyErr()
	}
	e.mu.RLock()
	if e.closed || e.closing {
		e.mu.RUnlock()
		return ErrClosed
	}
	// Sequence numbers are assigned under walMu, one hold for the whole
	// batch: sequence order equals log order equals slice order, and
	// concurrent writers see the batch as one contiguous block.
	e.walMu.Lock()
	w := e.wal
	prevN := w.Bytes()
	firstSeq := e.seq + 1
	var err error
	for i := range ops {
		e.seq++
		if err = w.append(ops[i]); err != nil {
			// Frames after a failed append would sit beyond a torn region
			// recovery cannot cross; stop framing here. The sequence
			// numbers already assigned are committed below so the
			// visibility watermark never wedges.
			break
		}
		if h := e.hook; h != nil {
			h.Append(e.seq, ops[i])
		}
	}
	lastSeq := e.seq
	pos := w.Bytes()
	e.walMu.Unlock()
	if err == nil && e.opts.SyncWrites {
		// One rendezvous for the batch: the leader's single fsync covers
		// every frame up to pos — the whole batch, plus whatever other
		// writers appended in the window. The caller still holds
		// e.mu.RLock, so the log cannot rotate out from under it.
		err = e.groupCommit(w, pos)
	}
	if err != nil {
		// The writes never happened (the caller gets the error), but their
		// sequence numbers exist.
		for s := firstSeq; s <= lastSeq; s++ {
			e.com.commit(s)
		}
		e.mu.RUnlock()
		if errors.Is(err, ErrWAL) || errors.Is(err, ErrQuorum) {
			// The log's tail is unknowable (failed append, failed fsync,
			// or a group-commit batch poisoned by either), or the batch
			// is durable here but stranded off a replication quorum:
			// acknowledging any further write would be lying about
			// durability. Degrade to ReadOnly — sticky until a guarded
			// recovery — and surface the transition on this error, cause
			// attached.
			e.degrade(ReadOnly, err)
			return fmt.Errorf("%w: %w", ErrReadOnly, err)
		}
		return err
	}
	mem := e.mem
	for i := range ops {
		seq := firstSeq + uint64(i)
		mem.put(e.c.Index(ops[i].Point), ops[i].Point, ops[i].Payload, seq, ops[i].Del)
		e.com.commit(seq)
	}
	entries := mem.entries.Load()
	e.mu.RUnlock()
	if tel := e.tel; tel != nil {
		tel.walAppends.Add(uint64(len(ops)))
		tel.walAppendBytes.Add(uint64(pos - prevN))
	}
	if e.opts.FlushEntries > 0 && entries >= int64(e.opts.FlushEntries) {
		select {
		case e.bg <- struct{}{}:
		default:
		}
	}
	return nil
}

// Curve returns the curve the engine clusters by — the one passed to
// Open. Ingest pipelines use it to route ops by curve key before the
// engine sees them.
func (e *Engine) Curve() curve.Curve { return e.c }
