package engine

import (
	"errors"
	"maps"
	"testing"

	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/vfs"
)

// batchManualOpts: no background maintenance, tiny pages — the
// deterministic shape the cross-checks need.
func batchManualOpts() Options {
	return Options{PageBytes: 192, FlushEntries: -1, CompactFanout: -1, Shards: 2}
}

// TestPutBatchCrossCheck proves PutBatch is observably identical to the
// same ops applied through Put/Delete one by one: after an identical
// flush + compact schedule, records AND logical query stats match
// bit-for-bit.
func TestPutBatchCrossCheck(t *testing.T) {
	o := fwCurve(t)
	ops := fwWorkload()
	ref, err := Open(t.TempDir(), o, batchManualOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	bat, err := Open(t.TempDir(), o, batchManualOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer bat.Close()

	var batch []BatchOp
	flushBatch := func() {
		if len(batch) == 0 {
			return
		}
		if err := bat.PutBatch(batch); err != nil {
			t.Fatal(err)
		}
		batch = batch[:0]
	}
	for i, op := range ops {
		if op.del {
			if err := ref.Delete(op.pt); err != nil {
				t.Fatal(err)
			}
		} else if err := ref.Put(op.pt, op.pay); err != nil {
			t.Fatal(err)
		}
		batch = append(batch, BatchOp{Point: op.pt, Payload: op.pay, Del: op.del})
		if len(batch) == 7 { // uneven batch boundary, crosses the flush points
			flushBatch()
		}
		if (i+1)%fwFlushEvery == 0 {
			flushBatch()
			if err := ref.Flush(); err != nil {
				t.Fatal(err)
			}
			if err := bat.Flush(); err != nil {
				t.Fatal(err)
			}
		}
	}
	flushBatch()
	for _, e := range []*Engine{ref, bat} {
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := e.Compact(); err != nil {
			t.Fatal(err)
		}
	}
	full := o.Universe().Rect()
	rRecs, rSt, err := ref.Query(full)
	if err != nil {
		t.Fatal(err)
	}
	bRecs, bSt, err := bat.Query(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(rRecs) != len(bRecs) {
		t.Fatalf("record counts differ: ref %d, batch %d", len(rRecs), len(bRecs))
	}
	for i := range rRecs {
		if !rRecs[i].Point.Equal(bRecs[i].Point) || rRecs[i].Payload != bRecs[i].Payload {
			t.Fatalf("record %d differs: ref %+v, batch %+v", i, rRecs[i], bRecs[i])
		}
	}
	if rSt.Stats != bSt.Stats || rSt.MemEntries != bSt.MemEntries ||
		rSt.Segments != bSt.Segments || rSt.Planned != bSt.Planned {
		t.Fatalf("stats differ:\n  ref   %+v\n  batch %+v", rSt, bSt)
	}
}

// TestPutBatchDurableRecovery: a synchronously committed batch survives a
// dirty close (no final flush) wholesale — the single group-commit fsync
// covered every frame.
func TestPutBatchDurableRecovery(t *testing.T) {
	o := fwCurve(t)
	dir := t.TempDir()
	opts := batchManualOpts()
	opts.SyncWrites = true
	e, err := Open(dir, o, opts)
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]BatchOp, 40)
	want := make(map[uint64]uint64)
	for i := range ops {
		pt := fwPoint(i)
		ops[i] = BatchOp{Point: pt, Payload: uint64(100 + i)}
		want[o.Index(pt)] = uint64(100 + i)
	}
	if err := e.PutBatch(ops); err != nil {
		t.Fatal(err)
	}
	// Abandon the engine without Close: the WAL alone must carry the batch.
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	close(e.bgStop)
	<-e.bgDone

	e2, err := Open(dir, o, batchManualOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	recs, _, err := e2.Query(o.Universe().Rect())
	if err != nil {
		t.Fatal(err)
	}
	got := make(map[uint64]uint64, len(recs))
	for _, r := range recs {
		got[o.Index(r.Point)] = r.Payload
	}
	if !maps.Equal(got, want) {
		t.Fatalf("recovered %d records, want %d (acked batch lost)", len(got), len(want))
	}
}

// TestPutBatchValidation: one out-of-universe op rejects the whole batch
// before anything reaches the log.
func TestPutBatchValidation(t *testing.T) {
	o := fwCurve(t)
	e, err := Open(t.TempDir(), o, batchManualOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	err = e.PutBatch([]BatchOp{
		{Point: fwPoint(1), Payload: 1},
		{Point: geom.Point{fwSide + 3, 0}, Payload: 2},
	})
	if !errors.Is(err, ErrPoint) {
		t.Fatalf("batch with bad point = %v, want ErrPoint", err)
	}
	recs, _, err := e.Query(o.Universe().Rect())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("rejected batch left %d records behind", len(recs))
	}
	if err := e.PutBatch(nil); err != nil {
		t.Fatalf("empty batch = %v, want nil", err)
	}
}

// TestPutBatchWALFaultTurnsReadOnly: a failed group-commit fsync under a
// batch acknowledges nothing, degrades the engine, and a reopen recovers
// an acked-consistent state.
func TestPutBatchWALFaultTurnsReadOnly(t *testing.T) {
	inj := vfs.NewInjecting(vfs.OS{})
	o := fwCurve(t)
	dir := t.TempDir()
	opts := batchManualOpts()
	opts.SyncWrites = true
	opts.FS = inj
	e, err := Open(dir, o, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close() //nolint:errcheck
	good := []BatchOp{{Point: fwPoint(0), Payload: 1}, {Point: fwPoint(1), Payload: 2}}
	if err := e.PutBatch(good); err != nil {
		t.Fatal(err)
	}
	inj.SetFaults(vfs.Fault{Op: vfs.OpSync, Path: "wal-", N: 1})
	bad := []BatchOp{{Point: fwPoint(2), Payload: 3}, {Point: fwPoint(3), Payload: 4}}
	err = e.PutBatch(bad)
	if !errors.Is(err, ErrReadOnly) || !errors.Is(err, ErrWAL) {
		t.Fatalf("batch under failed fsync = %v, want ErrReadOnly wrapping ErrWAL", err)
	}
	if h, _ := e.Health(); h != ReadOnly {
		t.Fatalf("health = %v, want ReadOnly", h)
	}
	if err := e.PutBatch(good); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("batch after ReadOnly = %v, want ErrReadOnly", err)
	}
	// The acked batch still serves, and survives a reopen.
	recs, _, err := e.Query(o.Universe().Rect())
	if err != nil || len(recs) != 2 {
		t.Fatalf("query on ReadOnly engine: %d records, err %v", len(recs), err)
	}
}
