package engine

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"maps"
	"math/rand"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/framedlog"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/vfs"
)

// batchManualOpts: no background maintenance, tiny pages — the
// deterministic shape the cross-checks need.
func batchManualOpts() Options {
	return Options{PageBytes: 192, FlushEntries: -1, compactFanout: -1}
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
		batch = append(batch, BatchOp{Key: o.Index(op.pt), Payload: op.pay, Del: op.del})
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
// dirty close (no final flush) wholesale — the batch's single fsync
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
		ops[i] = BatchOp{Key: o.Index(pt), Payload: uint64(100 + i)}
		want[o.Index(pt)] = uint64(100 + i)
	}
	if err := e.PutBatch(ops); err != nil {
		t.Fatal(err)
	}
	// Abandon the engine without Close: the WAL alone must carry the batch.
	crash(e)

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

// TestPutBatchValidation: one op whose key lies outside the key space
// rejects the whole batch before anything reaches the log, and Put
// rejects a point outside the universe.
func TestPutBatchValidation(t *testing.T) {
	o := fwCurve(t)
	e, err := Open(t.TempDir(), o, batchManualOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	err = e.PutBatch([]BatchOp{
		{Key: o.Index(fwPoint(1)), Payload: 1},
		{Key: o.Universe().Size(), Payload: 2},
	})
	if !errors.Is(err, ErrPoint) {
		t.Fatalf("batch with bad key = %v, want ErrPoint", err)
	}
	if err := e.Put(geom.Point{fwSide + 3, 0}, 2); !errors.Is(err, ErrPoint) {
		t.Fatalf("put of a bad point = %v, want ErrPoint", err)
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

// TestPutBatchWALFaultTurnsReadOnly: a failed fsync under a
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
	good := []BatchOp{{Key: o.Index(fwPoint(0)), Payload: 1}, {Key: o.Index(fwPoint(1)), Payload: 2}}
	if err := e.PutBatch(good); err != nil {
		t.Fatal(err)
	}
	inj.SetFaults(vfs.Fault{Op: vfs.OpSync, Path: "wal-", N: 1})
	bad := []BatchOp{{Key: o.Index(fwPoint(2)), Payload: 3}, {Key: o.Index(fwPoint(3)), Payload: 4}}
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

// crash abandons e without Close — no final flush, the WAL left as the
// last fsync made it — the way a process crash would.
func crash(e *Engine) {
	e.walMu.Lock()
	e.wal = nil
	e.walMu.Unlock()
	e.mu.Lock()
	e.closed = true
	e.mu.Unlock()
	close(e.bgStop)
	<-e.bgDone
}

// TestEngineVisibilityIsBatchPrefix: PutBatch publishes a batch only
// after all of its ops are in the memtable, in the order the batches took
// the write lock. So every query snapshot — taken while several writers
// run and background flushes rotate memtables — holds whole batches only,
// and of each writer's batches a prefix.
func TestEngineVisibilityIsBatchPrefix(t *testing.T) {
	const writers, batches, ops = 4, 30, 5
	o := fwCurve(t)
	opts := batchManualOpts()
	opts.SyncWrites = true
	opts.FlushEntries = 64
	e, err := Open(t.TempDir(), o, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Op i of batch b of writer w is record n = (w*batches+b)*ops+i, at a
	// point of its own, with payload n.
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			batch := make([]BatchOp, ops)
			for b := 0; b < batches; b++ {
				for i := range batch {
					n := (w*batches+b)*ops + i
					batch[i] = BatchOp{Key: o.Index(geom.Point{uint32(n % fwSide), uint32(n / fwSide)}), Payload: uint64(n)}
				}
				if err := e.PutBatch(batch); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	defer func() {
		<-done // a failed check must not close the engine under the writers
		e.Close()
	}()
	check := func() int {
		recs, _, err := e.Query(o.Universe().Rect())
		if err != nil {
			t.Fatal(err)
		}
		seen := make([]int, writers*batches) // visible ops per batch
		for _, r := range recs {
			seen[int(r.Payload)/ops]++
		}
		for w := 0; w < writers; w++ {
			missing := -1
			for b := 0; b < batches; b++ {
				switch n := seen[w*batches+b]; {
				case n != 0 && n != ops:
					t.Fatalf("writer %d batch %d: %d of %d ops visible", w, b, n, ops)
				case n == 0 && missing < 0:
					missing = b
				case n == ops && missing >= 0:
					t.Fatalf("writer %d: batch %d visible, its batch %d not", w, b, missing)
				}
			}
		}
		return len(recs)
	}
	queries := 0
	for running := true; running; queries++ {
		select {
		case <-done:
			running = false
		default:
		}
		check()
	}
	if n := check(); n != writers*batches*ops {
		t.Fatalf("%d records after the writers finished, want %d", n, writers*batches*ops)
	}
	t.Logf("%d queries", queries)
}

// TestQueryFilterSeesEveryPublishedKey runs queries whose plan puts each
// written key in a range of its own, beside ranges that never hold one,
// while a writer fills the memtables' occupancy bitmaps one key a batch
// and flushes rotate them; each put starts as a query does. A query
// skips a memtable for a range whose buckets are clear, so a bit set
// after its batch was published would lose that key: every query must
// return exactly the first n keys written, n at least the count
// acknowledged before it began.
func TestQueryFilterSeesEveryPublishedKey(t *testing.T) {
	const keys, stride = 256, 16
	o := fwCurve(t)
	opts := batchManualOpts()
	opts.FlushEntries = 64
	e, err := Open(t.TempDir(), o, opts)
	if err != nil {
		t.Fatal(err)
	}
	var plan []curve.KeyRange
	for j := uint64(0); j < keys; j++ {
		plan = append(plan, curve.KeyRange{Lo: j * stride, Hi: j*stride + stride/2 - 1}, curve.KeyRange{Lo: j*stride + stride/2, Hi: j*stride + stride - 1})
	}
	order := rand.New(rand.NewSource(5)).Perm(keys) // write i puts key order[i]*stride
	var acked atomic.Int64
	start, stop, done := make(chan struct{}), make(chan struct{}), make(chan struct{})
	defer func() {
		close(stop)
		<-done // a failed check must not close the engine under the writer
		e.Close()
	}()
	go func() {
		defer close(done)
		for i, j := range order {
			select {
			case <-start:
			case <-stop:
				return
			}
			if err := e.PutBatch([]BatchOp{{Key: uint64(j) * stride, Payload: uint64(i)}}); err != nil {
				t.Error(err)
				return
			}
			acked.Store(int64(i + 1))
		}
	}()
	var recs []Record
	for running := true; running; {
		select {
		case <-done:
			running = false
		case start <- struct{}{}:
		default:
		}
		before := acked.Load()
		if recs, _, err = e.QueryRanges(context.Background(), recs[:0], plan); err != nil {
			t.Fatal(err)
		}
		seen := make([]bool, keys)
		for _, r := range recs {
			seen[r.Payload] = true
		}
		n := int64(len(recs))
		if n < before {
			t.Fatalf("%d records, but %d writes were acknowledged before the query", n, before)
		}
		for i := int64(0); i < n; i++ {
			if !seen[i] {
				t.Fatalf("%d records without write %d (key %d)", n, i, order[i]*stride)
			}
		}
	}
	if len(recs) != keys {
		t.Fatalf("%d records after the writer finished, want %d", len(recs), keys)
	}
}

// failingCommit is a CommitHook whose first Commit signals entered,
// blocks until release closes, and then fails the batch's quorum round;
// later Commits succeed.
type failingCommit struct {
	entered, release chan struct{}
	commits          atomic.Int32
}

func (h *failingCommit) Append(uint64, []byte) {}

func (h *failingCommit) Commit(uint64) error {
	if h.commits.Add(1) > 1 {
		return nil
	}
	close(h.entered)
	<-h.release
	return fmt.Errorf("%w: injected", ErrQuorum)
}

// TestPutBatchBehindFailedCommit: a batch queued on the write lock behind
// a batch whose quorum round fails is rejected with ErrReadOnly without
// reaching the log, so a reopen never finds its op.
func TestPutBatchBehindFailedCommit(t *testing.T) {
	o := fwCurve(t)
	dir := t.TempDir()
	hook := &failingCommit{entered: make(chan struct{}), release: make(chan struct{})}
	opts := batchManualOpts()
	opts.SyncWrites = true
	opts.CommitHook = hook
	e, err := Open(dir, o, opts)
	if err != nil {
		t.Fatal(err)
	}
	first, second := make(chan error, 1), make(chan error, 1)
	go func() { first <- e.Put(fwPoint(0), 1) }()
	<-hook.entered
	go func() { second <- e.Put(fwPoint(1), 2) }()
	waitWriteLockWaiter(t)
	close(hook.release)
	if err := <-first; !errors.Is(err, ErrReadOnly) || !errors.Is(err, ErrQuorum) {
		t.Fatalf("failed commit = %v, want ErrReadOnly wrapping ErrQuorum", err)
	}
	if err := <-second; !errors.Is(err, ErrReadOnly) {
		t.Fatalf("batch queued behind the failed commit = %v, want ErrReadOnly", err)
	}
	crash(e)

	e2, err := Open(dir, o, batchManualOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	recs, _, err := e2.Query(o.Universe().Rect())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if r.Payload == 2 {
			t.Fatalf("the rejected batch's op %v survived a reopen", r.Point)
		}
	}
}

// waitWriteLockWaiter returns once some goroutine is parked on a mutex
// inside PutBatch — the write lock, the only mutex PutBatch waits on
// while another batch holds the engine.
func waitWriteLockWaiter(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "Mutex).Lock") && strings.Contains(g, "(*Engine).PutBatch") {
				return
			}
		}
	}
	t.Fatal("no PutBatch queued on the write lock")
}

// gateHook is a CommitHook that, once armed, holds the next batch in its
// Commit — fsynced, not yet acknowledged — until release closes.
type gateHook struct {
	armed            atomic.Bool
	entered, release chan struct{}
}

func (h *gateHook) Append(uint64, []byte) {}

func (h *gateHook) Commit(uint64) error {
	if h.armed.CompareAndSwap(true, false) {
		close(h.entered)
		<-h.release
	}
	return nil
}

// TestQueryDoesNotWaitOutABatch: while one batch is in flight — its
// quorum round held open by the hook — and a Flush or a Compact is queued
// behind it, a new query still returns before the batch is released. A
// query waits on pointer swaps behind other queries, never on another
// batch's fsync or quorum round. Neither do the stats readers, Stats and
// the telemetry snapshot's engine_wal_bytes gauge: they see the held
// batch's sequence number assigned and its frame in the log. There is no
// sleep and no deadline: the test yields until each goroutine it watches
// returns or parks on a lock.
func TestQueryDoesNotWaitOutABatch(t *testing.T) {
	query := func(e *Engine) error {
		_, _, err := e.Query(e.c.Universe().Rect())
		return err
	}
	for _, tc := range []struct {
		name, frame string // frame: the queued operation, as stacks print it
		op          func(*Engine) error
		reader      string // the reader, as stacks print it
		read        func(*Engine) error
	}{
		{"flush", "(*Engine).Flush", (*Engine).Flush, "(*Engine).Query", query},
		// Over two segments, so the merge output is installed under e.mu.
		{"compact", "(*Engine).Compact", (*Engine).Compact, "(*Engine).Query", query},
		{"stats", "", nil, "(*Engine).Stats", func(e *Engine) error {
			if st := e.Stats(); st.LastSeq != 3 || st.WALBytes == 0 {
				return fmt.Errorf("stats during the held batch: last seq %d, WAL %d bytes; want 3, > 0", st.LastSeq, st.WALBytes)
			}
			return nil
		}},
		{"telemetry", "", nil, "(*Engine).TelemetrySnapshot", func(e *Engine) error {
			if m, _ := e.TelemetrySnapshot().Metric("engine_wal_bytes"); m.Int == 0 {
				return fmt.Errorf("engine_wal_bytes = 0 during the held batch")
			}
			return nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			o := fwCurve(t)
			hook := &gateHook{entered: make(chan struct{}), release: make(chan struct{})}
			release := sync.OnceFunc(func() { close(hook.release) })
			opts := batchManualOpts()
			opts.CommitHook = hook
			e, err := Open(t.TempDir(), o, opts)
			if err != nil {
				t.Fatal(err)
			}
			defer e.Close()
			defer release() // before Close, which waits for the held batch
			for i := 0; i < 2; i++ {
				if err := e.Put(fwPoint(i), uint64(i)); err != nil {
					t.Fatal(err)
				}
				if err := e.Flush(); err != nil {
					t.Fatal(err)
				}
			}
			hook.armed.Store(true)
			put, queued, read := make(chan error, 1), make(chan error, 1), make(chan error, 1)
			go func() { put <- e.Put(fwPoint(2), 2) }()
			<-hook.entered
			if tc.op != nil {
				go func() { queued <- tc.op(e) }()
				parkedOrDone(tc.frame, queued)
			} else {
				queued <- nil
			}
			go func() { read <- tc.read(e) }()
			if parkedOrDone(tc.reader, read) {
				release()
				t.Fatalf("%s waits out the in-flight batch", tc.reader)
			}
			release()
			for _, ch := range []chan error{put, queued, read} {
				if err := <-ch; err != nil {
					t.Fatal(err)
				}
			}
			if recs, _, err := e.Query(o.Universe().Rect()); err != nil || len(recs) != 3 {
				t.Fatalf("%d records after the batch, err %v; want 3", len(recs), err)
			}
		})
	}
}

// parkedOrDone yields until a goroutine of this test whose stack holds
// frame is parked on a sync lock (true) or done has a result (false).
func parkedOrDone(frame string, done chan error) bool {
	buf := make([]byte, 1<<20)
	for len(done) == 0 {
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			header, _, _ := strings.Cut(g, "\n")
			if strings.Contains(header, "[sync.") && strings.Contains(header, "Lock") &&
				strings.Contains(g, frame) && strings.Contains(g, "TestQueryDoesNotWaitOutABatch") {
				return true
			}
		}
		runtime.Gosched()
	}
	return false
}

// recordingHook keeps a copy of every Append it is handed.
type recordingHook struct {
	seqs    []uint64
	batches [][]byte
}

func (h *recordingHook) Append(seq uint64, batch []byte) {
	h.seqs = append(h.seqs, seq)
	h.batches = append(h.batches, bytes.Clone(batch))
}

func (h *recordingHook) Commit(uint64) error { return nil }

// TestCommitHookAppendIsTheWALFrame: an engine opened with a commit hook
// and without SyncWrites writes synchronously anyway, and the hook's
// Append fires once per PutBatch with the batch's last sequence number
// and exactly the payload of the batch's WAL frame, which replayWAL
// decodes back to the batch's ops.
func TestCommitHookAppendIsTheWALFrame(t *testing.T) {
	o := fwCurve(t)
	dir := t.TempDir()
	hook := &recordingHook{}
	opts := batchManualOpts()
	opts.CommitHook = hook
	e, err := Open(dir, o, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if !e.opts.SyncWrites {
		t.Fatal("an engine with a commit hook runs without SyncWrites")
	}
	var all []BatchOp
	var seq uint64
	for i, n := range []int{1, 3, 64} {
		ops := sampleOps(o, n)
		if err := e.PutBatch(ops); err != nil {
			t.Fatal(err)
		}
		all = append(all, ops...)
		seq += uint64(n)
		if len(hook.seqs) != i+1 || hook.seqs[i] != seq {
			t.Fatalf("after batch %d: Append seqs %v, want one per batch ending at %d", i, hook.seqs, seq)
		}
	}
	wals, err := filepath.Glob(filepath.Join(dir, "wal-*.log"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("wals %v err %v", wals, err)
	}
	var frames [][]byte
	if err := framedlog.Replay(vfs.OS{}, wals[0], func(p []byte) bool {
		frames = append(frames, bytes.Clone(p))
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !slices.EqualFunc(frames, hook.batches, bytes.Equal) {
		t.Fatalf("WAL frames %x, hook saw %x", frames, hook.batches)
	}
	got, err := replayWAL(vfs.OS{}, wals[0], o.Universe().Size())
	if err != nil {
		t.Fatal(err)
	}
	var decoded []BatchOp
	for _, b := range hook.batches {
		if decoded, err = DecodeBatch(decoded, b, o.Universe().Size()); err != nil {
			t.Fatal(err)
		}
	}
	if !slices.Equal(got, all) || !slices.Equal(decoded, all) {
		t.Fatalf("replayWAL %+v, hook bytes decode to %+v, want %+v", got, decoded, all)
	}
}
