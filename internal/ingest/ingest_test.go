package ingest

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/pagedstore"
	"github.com/onioncurve/onion/internal/vfs"
)

const igSide = 64

type igOp struct {
	pt  geom.Point
	pay uint64
	del bool
}

func igCurve(t testing.TB) curve.Curve {
	t.Helper()
	o, err := core.NewOnion2D(igSide)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func igPoint(i int) geom.Point {
	return geom.Point{uint32(i*7) % igSide, uint32(i*13+5) % igSide}
}

// igWorkload is a deterministic op log with recurring points (so
// coalescing and newest-wins resolution both fire) and deletes that chase
// recent puts across batch boundaries.
func igWorkload(n int) []igOp {
	ops := make([]igOp, 0, n)
	for i := 0; i < n; i++ {
		switch {
		case i%9 == 8:
			ops = append(ops, igOp{pt: igPoint(i - 4), del: true})
		default:
			ops = append(ops, igOp{pt: igPoint(i % 48), pay: uint64(1000 + i)})
		}
	}
	return ops
}

// igOpts: tiny pages (ten 12-byte slots) and caches, no background
// maintenance — the deterministic shape the cross-checks need.
func igOpts() engine.Options {
	return engine.Options{PageBytes: 120, FlushEntries: -1, CompactFanout: -1,
		Cache: pagedstore.NewCache(3072)}
}

// igApplySerial drives ops through the synchronous write path in log
// order — the reference the pipeline is checked against.
func igApplySerial(t testing.TB, e *engine.Engine, ops []igOp) {
	t.Helper()
	for i, op := range ops {
		var err error
		if op.del {
			err = e.Delete(op.pt)
		} else {
			err = e.Put(op.pt, op.pay)
		}
		if err != nil {
			t.Fatalf("serial op %d: %v", i, err)
		}
	}
}

// igProduce fans ops out to `workers` producers partitioned by curve key
// (each key's ops stay on one producer, preserving per-key order — the
// same invariant any real per-key-sessioned client has), enqueues them
// asynchronously, and waits for every ack.
func igProduce(t testing.TB, p *Pipeline, c curve.Curve, ops []igOp, workers int) {
	t.Helper()
	ctx := context.Background()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			handles := make([]*Handle, 0, len(ops))
			for _, op := range ops {
				if int(c.Index(op.pt)%uint64(workers)) != w {
					continue
				}
				var h *Handle
				var err error
				if op.del {
					h, err = p.DeleteAsync(ctx, op.pt)
				} else {
					h, err = p.PutAsync(ctx, op.pt, op.pay)
				}
				if err != nil {
					t.Errorf("worker %d enqueue: %v", w, err)
					return
				}
				handles = append(handles, h)
			}
			for _, h := range handles {
				if err := h.Wait(ctx); err != nil {
					t.Errorf("worker %d ack: %v", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := p.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// igCompare asserts two engines hold bit-identical query results: same
// records in the same order AND the same logical query stats.
func igCompare(t testing.TB, label string, o curve.Curve, ref, got *engine.Engine) {
	t.Helper()
	full := o.Universe().Rect()
	rRecs, rSt, err := ref.Query(full)
	if err != nil {
		t.Fatal(err)
	}
	gRecs, gSt, err := got.Query(full)
	if err != nil {
		t.Fatal(err)
	}
	if len(rRecs) != len(gRecs) {
		t.Fatalf("%s: record counts differ: ref %d, got %d", label, len(rRecs), len(gRecs))
	}
	for i := range rRecs {
		if !rRecs[i].Point.Equal(gRecs[i].Point) || rRecs[i].Payload != gRecs[i].Payload {
			t.Fatalf("%s: record %d differs: ref %+v, got %+v", label, i, rRecs[i], gRecs[i])
		}
	}
	if rSt.Stats != gSt.Stats || rSt.MemEntries != gSt.MemEntries ||
		rSt.Segments != gSt.Segments || rSt.Planned != gSt.Planned {
		t.Fatalf("%s: stats differ:\n  ref %+v\n  got %+v", label, rSt, gSt)
	}
}

// TestIngestCrossCheck: concurrent producers through the async pipeline
// against the same op log applied serially through Put/Delete. After an
// identical flush+compact epilogue the disk state is canonical, so
// records and query stats must be bit-identical at every worker count.
func TestIngestCrossCheck(t *testing.T) {
	ops := igWorkload(600)
	for _, workers := range []int{1, 2, 8} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			o := igCurve(t)
			ref, err := engine.Open(t.TempDir(), o, igOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			igApplySerial(t, ref, ops)

			eng, err := engine.Open(t.TempDir(), o, igOpts())
			if err != nil {
				t.Fatal(err)
			}
			defer eng.Close()
			p, err := NewEngine(eng, Config{Ring: 64, MaxBatch: 32})
			if err != nil {
				t.Fatal(err)
			}
			igProduce(t, p, o, ops, workers)
			if err := p.Close(); err != nil {
				t.Fatalf("close: %v", err)
			}

			for _, e := range []*engine.Engine{ref, eng} {
				if err := e.Flush(); err != nil {
					t.Fatal(err)
				}
				if err := e.Compact(); err != nil {
					t.Fatal(err)
				}
			}
			igCompare(t, fmt.Sprintf("w%d", workers), o, ref, eng)

			snap := p.Telemetry().Snapshot()
			if enq, acked := snap.Counter("ingest_enqueued_total"), snap.Counter("ingest_acked_total"); enq != acked || enq == 0 {
				t.Fatalf("telemetry: enqueued %d, acked %d", enq, acked)
			}
			if snap.Counter("ingest_batches_total") == 0 {
				t.Fatal("telemetry: no batches recorded")
			}
			if h := snap.Hist("ingest_batch_ops"); h == nil || h.Count == 0 {
				t.Fatal("telemetry: batch-size histogram empty")
			}
		})
	}
}

// gateTarget blocks every ApplyBatch until released — the tool for
// filling the pipeline deterministically.
type gateTarget struct {
	release chan struct{}
}

func (g *gateTarget) Stripes() int                           { return 1 }
func (g *gateTarget) StripeOf(uint64) int                    { return 0 }
func (g *gateTarget) ApplyBatch(int, []engine.BatchOp) error { <-g.release; return nil }

// TestIngestBackpressure: with the sink wedged, the pipeline absorbs at
// most ring + 3×MaxBatch ops (the documented memory bound), then sheds:
// TryPut rejects with ErrBackpressure and a blocking Put obeys its
// context deadline. Releasing the sink acks everything absorbed.
func TestIngestBackpressure(t *testing.T) {
	o := igCurve(t)
	gate := &gateTarget{release: make(chan struct{})}
	cfg := Config{Ring: 4, MaxBatch: 4}
	p, err := New(o, gate, cfg)
	if err != nil {
		t.Fatal(err)
	}
	var handles []*Handle
	absorbed := 0
	bound := 4 + 3*4 // ring + router pending + handoff + in-flight batch
	for i := 0; i < 10*bound; i++ {
		h, err := p.TryPut(igPoint(i%48), uint64(i))
		if err != nil {
			if !errors.Is(err, ErrBackpressure) {
				t.Fatalf("TryPut error = %v, want ErrBackpressure", err)
			}
			// The router may still be mid-drain: only a repeated reject
			// with no progress is steady-state backpressure.
			if p.QueueDepth() >= cfg.Ring {
				break
			}
			time.Sleep(100 * time.Microsecond)
			continue
		}
		absorbed++
		handles = append(handles, h)
	}
	if absorbed == 0 {
		t.Fatal("nothing absorbed before backpressure")
	}
	if absorbed > bound {
		t.Fatalf("absorbed %d ops with a wedged sink, bound is %d", absorbed, bound)
	}
	if snap := p.Telemetry().Snapshot(); snap.Counter("ingest_backpressure_rejects_total") == 0 {
		t.Fatal("rejects counter did not move")
	}

	// A blocking Put under full backpressure respects its deadline.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	if err := p.Put(ctx, igPoint(0), 1); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("blocking Put under backpressure = %v, want DeadlineExceeded", err)
	}

	close(gate.release)
	dctx, dcancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer dcancel()
	if err := p.Drain(dctx); err != nil {
		t.Fatalf("drain after release: %v", err)
	}
	for i, h := range handles {
		if err := h.Wait(dctx); err != nil {
			t.Fatalf("absorbed op %d ack = %v, want nil", i, err)
		}
	}
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
}

// TestIngestCloseDrains: Close flushes everything already accepted —
// every handle completes nil and the records are durable in the engine —
// and afterwards every enqueue path reports ErrClosed.
func TestIngestCloseDrains(t *testing.T) {
	o := igCurve(t)
	eng, err := engine.Open(t.TempDir(), o, igOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	p, err := NewEngine(eng, Config{Ring: 128, MaxBatch: 16})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	var handles []*Handle
	for i := 0; i < 50; i++ {
		h, err := p.PutAsync(ctx, igPoint(i), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if err := p.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	for i, h := range handles {
		if err := h.Wait(ctx); err != nil {
			t.Fatalf("op %d after close: %v, want nil (accepted before close)", i, err)
		}
	}
	recs, _, err := eng.Query(o.Universe().Rect())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 50 {
		t.Fatalf("engine has %d records after close, want 50", len(recs))
	}
	if err := p.Put(ctx, igPoint(0), 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Put after close = %v, want ErrClosed", err)
	}
	if _, err := p.TryPut(igPoint(0), 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("TryPut after close = %v, want ErrClosed", err)
	}
	if err := p.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second close = %v, want ErrClosed", err)
	}
}

// TestIngestValidation: an out-of-universe point is rejected at the ring,
// not deep in a batch where it would poison unrelated ops.
func TestIngestValidation(t *testing.T) {
	o := igCurve(t)
	eng, err := engine.Open(t.TempDir(), o, igOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()
	p, err := NewEngine(eng, Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close() //nolint:errcheck
	if _, err := p.TryPut(geom.Point{igSide + 1, 0}, 1); !errors.Is(err, engine.ErrPoint) {
		t.Fatalf("out-of-universe TryPut = %v, want ErrPoint", err)
	}
	if err := p.Put(context.Background(), geom.Point{0, igSide}, 1); !errors.Is(err, engine.ErrPoint) {
		t.Fatalf("out-of-universe Put = %v, want ErrPoint", err)
	}
}

// TestIngestApplyErrorFansOut: a WAL fsync fault under a batch fails
// every handle in it with the engine's ReadOnly error, the sticky
// pipeline error is set, and Close surfaces it.
func TestIngestApplyErrorFansOut(t *testing.T) {
	inj := vfs.NewInjecting(vfs.OS{})
	o := igCurve(t)
	opts := igOpts()
	opts.SyncWrites = true
	opts.FS = inj
	eng, err := engine.Open(t.TempDir(), o, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close() //nolint:errcheck
	p, err := NewEngine(eng, Config{Ring: 64, MaxBatch: 64})
	if err != nil {
		t.Fatal(err)
	}
	inj.SetFaults(vfs.Fault{Op: vfs.OpSync, Path: "wal-", N: 1, Repeat: true})
	ctx := context.Background()
	var handles []*Handle
	for i := 0; i < 20; i++ {
		h, err := p.PutAsync(ctx, igPoint(i), uint64(i))
		if err != nil {
			t.Fatal(err)
		}
		handles = append(handles, h)
	}
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	failed := 0
	for _, h := range handles {
		if err := h.Wait(ctx); err != nil {
			if !errors.Is(err, engine.ErrReadOnly) {
				t.Fatalf("handle error = %v, want ErrReadOnly", err)
			}
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no handle saw the injected WAL failure")
	}
	if p.Err() == nil {
		t.Fatal("pipeline sticky error not set")
	}
	if err := p.Close(); err == nil {
		t.Fatal("close after batch failure = nil, want the sticky error")
	}
}

// TestIngestBackpressureWakeup: producers parked on a full ring wake the
// moment a slot frees. The wait path is an armed broadcast signal with
// no poll fallback, so this test is sharp: a lost wakeup does not cost
// 200µs of latency, it hangs a producer forever and times the test out.
// The sink releases one batch at a time, freeing slots one dequeue at a
// time — every parked producer must ride one of those edges.
func TestIngestBackpressureWakeup(t *testing.T) {
	o := igCurve(t)
	gate := &gateTarget{release: make(chan struct{})}
	p, err := New(o, gate, Config{Ring: 2, MaxBatch: 1})
	if err != nil {
		t.Fatal(err)
	}

	const producers = 16
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	errs := make(chan error, producers)
	var wg sync.WaitGroup
	for i := 0; i < producers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs <- p.Put(ctx, igPoint(i), uint64(i))
		}(i)
	}

	// Wait until producers are actually parked on the space signal, so
	// the drip below exercises wake-on-dequeue rather than a fast path.
	for deadline := time.Now().Add(5 * time.Second); p.ring.space.waiters.Load() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("no producer ever parked on the full ring")
		}
		time.Sleep(50 * time.Microsecond)
	}

	// Drip-release batches one at a time; each ApplyBatch return frees
	// ring slots one dequeue at a time. Close the gate at the end so any
	// residual batches drain unimpeded.
	go func() {
		for i := 0; i < producers; i++ {
			select {
			case gate.release <- struct{}{}:
			case <-ctx.Done():
				return
			}
			time.Sleep(100 * time.Microsecond)
		}
		close(gate.release)
	}()

	wg.Wait()
	for i := 0; i < producers; i++ {
		if err := <-errs; err != nil {
			t.Fatalf("parked producer failed: %v", err)
		}
	}
	if err := p.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	hist := p.Telemetry().Snapshot().Hist("ingest_enqueue_wait_us")
	if hist == nil || hist.Count == 0 {
		t.Fatal("no enqueue waits recorded: the test never parked a producer")
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
}
