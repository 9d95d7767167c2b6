package engine

import (
	"context"
	"errors"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"syscall"
	"testing"
	"time"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/pagedstore"
	"github.com/onioncurve/onion/internal/vfs"
)

// The fault matrix drives one fixed, fully deterministic workload —
// synchronous writes (acked means durable), explicit flushes, explicit
// compactions — against an Injecting filesystem, enumerates every
// injectable operation it performs, then re-runs it once per fault
// point with that operation failing (or crashing the filesystem) and
// asserts the recovery contract: a clean reopen succeeds, every
// acknowledged write is present, nothing beyond the attempted ops is
// present, and the logical query stats stay bit-identical with the page
// cache on and off.

const (
	fwSide       = 64
	fwOps        = 90
	fwFlushEvery = 25
)

type fwOp struct {
	pt  geom.Point
	pay uint64
	del bool
}

func fwCurve(t testing.TB) curve.Curve {
	t.Helper()
	o, err := core.NewOnion2D(fwSide)
	if err != nil {
		t.Fatal(err)
	}
	return o
}

func fwPoint(i int) geom.Point {
	return geom.Point{uint32(i*7) % fwSide, uint32(i*13+5) % fwSide}
}

// fwWorkload is the fixed op sequence: mostly puts (with some points
// recurring, so newest-wins resolution is exercised), and every ninth
// op a delete of a point written four ops earlier, so tombstones cross
// flush and compaction boundaries.
func fwWorkload() []fwOp {
	ops := make([]fwOp, 0, fwOps)
	for i := 0; i < fwOps; i++ {
		if i%9 == 8 {
			ops = append(ops, fwOp{pt: fwPoint(i - 4), del: true})
		} else {
			ops = append(ops, fwOp{pt: fwPoint(i), pay: uint64(1000 + i)})
		}
	}
	return ops
}

// fwStateAfter applies the first j ops and returns key → payload.
func fwStateAfter(c curve.Curve, ops []fwOp, j int) map[uint64]uint64 {
	m := make(map[uint64]uint64)
	for _, op := range ops[:j] {
		k := c.Index(op.pt)
		if op.del {
			delete(m, k)
		} else {
			m[k] = op.pay
		}
	}
	return m
}

// fwOpts: 88-byte pages hold at most ten records of distinct keys (eleven
// take 88 payload bytes and at least 2 bytes of key offsets), so a segment
// build pays at least one page write per ten entries — the fault points
// the matrices enumerate.
func fwOpts(fsys vfs.FS) Options {
	return Options{PageBytes: 88, FlushEntries: -1, compactFanout: 2,
		SyncWrites: true, FS: fsys}
}

// fwRun drives the workload against dir through fsys and returns how
// many leading ops were acknowledged and how many compactions ran. Maintenance runs inline at fixed
// points (background is idle: FlushEntries < 0 never rings the
// doorbell), so the operation sequence is identical on every run until
// the injected fault fires. Once one write fails, every later one must
// fail too — the engine is ReadOnly or the filesystem is crashed —
// which is what makes "the acked ops" a prefix the matrix can verify
// against. The directory starts with an archive/, as an engine's does
// after its first snapshot, so every WAL retirement takes the archive
// path (rename and two directory fsyncs); TestFirstSnapshotFaultMatrix
// covers the delete before it. Unless fresh, it also starts with the
// curve identity file, as a directory does after its first open; a fresh
// run's Open writes it.
func fwRun(t *testing.T, dir string, fsys vfs.FS, ops []fwOp, fresh bool) (acked int, compactions uint64) {
	t.Helper()
	if err := os.MkdirAll(archiveDir(dir), 0o755); err != nil {
		t.Fatal(err)
	}
	if !fresh {
		if err := os.WriteFile(filepath.Join(dir, identityFile), curve.IdentityOf(fwCurve(t)).Record(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	e, err := Open(dir, fwCurve(t), fwOpts(fsys))
	if err != nil {
		return 0, 0
	}
	failed := false
	for i, op := range ops {
		var werr error
		if op.del {
			werr = e.Delete(op.pt)
		} else {
			werr = e.Put(op.pt, op.pay)
		}
		if werr == nil {
			if failed {
				t.Fatalf("op %d acked after an earlier write failed", i)
			}
			acked++
		} else {
			failed = true
		}
		if (i+1)%fwFlushEvery == 0 {
			e.Flush()        //nolint:errcheck // fault runs flush into injected errors
			e.maybeCompact() //nolint:errcheck
		}
	}
	e.Close() //nolint:errcheck // a crashed filesystem cannot close cleanly
	return acked, e.Stats().Compactions
}

// fwRecover reopens dir on the real filesystem — twice, with the page
// cache off and on — and returns the surviving record set, asserting
// the reopen works, the query works, both reopens agree, and the
// logical stats are bit-identical across cache states.
func fwRecover(t *testing.T, dir string) map[uint64]uint64 {
	t.Helper()
	o := fwCurve(t)
	full := o.Universe().Rect()
	open := func(cache *pagedstore.Cache) (map[uint64]uint64, Stats) {
		e, err := Open(dir, o, Options{PageBytes: 192, FlushEntries: -1,
			compactFanout: -1, Cache: cache})
		if err != nil {
			t.Fatalf("reopen after fault: %v", err)
		}
		defer e.Close()
		recs, st, err := e.Query(full)
		if err != nil {
			t.Fatalf("query after fault: %v", err)
		}
		m := make(map[uint64]uint64, len(recs))
		for _, r := range recs {
			m[o.Index(r.Point)] = r.Payload
		}
		return m, st
	}
	got, st0 := open(nil)
	got2, st1 := open(pagedstore.NewCache(1 << 20))
	if !maps.Equal(got, got2) {
		t.Fatalf("cached reopen disagrees: %d vs %d records", len(got), len(got2))
	}
	if st0.Stats != st1.Stats || st0.MemEntries != st1.MemEntries || st0.Segments != st1.Segments {
		t.Fatalf("logical stats differ across cache states:\n  off %+v\n  on  %+v", st0, st1)
	}
	return got
}

// fwCheck asserts the recovered state is consistent with the acked
// prefix: it must equal the state after some j ops with acked <= j <=
// len(ops) (an errored write has indeterminate durability, so any
// prefix covering every acked op is legal — but nothing else is).
func fwCheck(t *testing.T, c curve.Curve, ops []fwOp, acked int, got map[uint64]uint64) {
	t.Helper()
	for j := acked; j <= len(ops); j++ {
		if maps.Equal(got, fwStateAfter(c, ops, j)) {
			return
		}
	}
	t.Fatalf("recovered state matches no acked-consistent prefix: acked %d/%d ops, recovered %d records",
		acked, len(ops), len(got))
}

func TestFaultMatrix(t *testing.T) {
	ops := fwWorkload()
	// Every fault point class the storage stack owns: WAL appends and
	// fsyncs, segment builds (flush and compaction write through the
	// same tmp files), segment installs (rename + directory fsync), and
	// WAL/input retirement, all from a directory already stamped with
	// its curve identity; then every operation on the identity file when
	// Open stamps a fresh directory.
	fwMatrix(t, ops, false,
		vfs.Fault{Op: vfs.OpWrite, Path: "wal-"},
		vfs.Fault{Op: vfs.OpSync, Path: "wal-"},
		vfs.Fault{Op: vfs.OpAny, Path: ".pst.tmp"},
		vfs.Fault{Op: vfs.OpRename},
		vfs.Fault{Op: vfs.OpSyncDir},
		vfs.Fault{Op: vfs.OpRemove},
	)
	fwMatrix(t, ops, true, vfs.Fault{Op: vfs.OpAny, Path: identityFile})
}

// fwMatrix enumerates the operations each filter matches in one
// fault-free fwRun, then runs fwRun again once per matched operation with
// that operation failing, and once with it crashing the filesystem.
func fwMatrix(t *testing.T, ops []fwOp, fresh bool, filters ...vfs.Fault) {
	o := fwCurve(t)
	// Enumeration pass: count-only rules (N == 0 never fires) tally how
	// many operations each filter matches under the recorded workload.
	rec := newOpRecorder()
	inj := vfs.NewInjecting(rec)
	inj.SetFaults(filters...)
	enumDir := t.TempDir()
	acked, compactions := fwRun(t, enumDir, inj, ops, fresh)
	if acked != len(ops) {
		t.Fatalf("enumeration run dropped writes: %d/%d acked", acked, len(ops))
	}
	if compactions == 0 {
		t.Fatal("enumeration run never compacted")
	}
	fwCheck(t, o, ops, len(ops), fwRecover(t, enumDir))

	root := t.TempDir()
	for fi, f := range filters {
		total := inj.Matched(fi)
		if total == 0 {
			t.Fatalf("filter %+v matched no operations — the workload no longer exercises it", f)
		}
		names := rec.names(t, f, total)
		for _, kind := range []vfs.Kind{vfs.KindFail, vfs.KindCrash} {
			for n := int64(1); n <= total; n++ {
				name := fmt.Sprintf("%s-%s-%s-n%d", f.Op, f.Path, kind, n)
				runFaultCase(t, name, names[n-1], func(t *testing.T) {
					dir := caseDir(t, root)
					ifs := vfs.NewInjecting(vfs.OS{})
					ifs.SetFaults(vfs.Fault{Op: f.Op, Path: f.Path, N: n, Kind: kind})
					acked, _ := fwRun(t, dir, ifs, ops, fresh)
					if len(ifs.Injected()) == 0 {
						t.Fatalf("fault point %d of %d never fired", n, total)
					}
					fwCheck(t, o, ops, acked, fwRecover(t, dir))
				})
			}
		}
	}
}

// writeUntilCompaction proves that background compaction runs, whatever
// pace the flusher kept before: FlushEntries triggers a background flush,
// it does not bound the memtable, so a churn may end before it flushed a
// run. It writes rounds of FlushEntries distinct keys, each ended by the
// next background flush, so each round adds a segment of similar size,
// until a compaction has run; 16 rounds without one fail t. A round's
// writes ring the flush doorbell, so its flush comes by construction: the
// wait has no deadline and fails only on a background error. The writes
// are folded into survivors.
func writeUntilCompaction(t *testing.T, e *Engine, survivors map[uint64]pagedstore.Record) {
	t.Helper()
	n, u := uint64(e.opts.FlushEntries), e.c.Universe()
	for round := uint64(0); e.Stats().Compactions == 0; round++ {
		if round == 16 {
			t.Fatal("no background compaction after 16 rounds of flushes")
		}
		flushes := e.Stats().Flushes
		for j := uint64(0); j < n; j++ {
			key := (round*n + j) % u.Size()
			pt := e.c.Coords(key, make(geom.Point, u.Dims()))
			payload := round<<32 | key
			if err := e.Put(pt, payload); err != nil {
				t.Fatal(err)
			}
			survivors[key] = pagedstore.Record{Point: pt, Payload: payload}
		}
		for ; e.Stats().Flushes == flushes; time.Sleep(time.Millisecond) {
			if err := e.BackgroundErr(); err != nil {
				t.Fatalf("round %d: %v", round, err)
			}
		}
	}
}

// waitHealth polls until the engine reaches at least want, returning
// the driving cause.
func waitHealth(t *testing.T, e *Engine, want Health) error {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if h, cause := e.Health(); h >= want {
			return cause
		}
		time.Sleep(2 * time.Millisecond)
	}
	h, cause := e.Health()
	t.Fatalf("engine never reached %v: still %v (cause %v)", want, h, cause)
	return nil
}

func TestWALFsyncFailureTurnsReadOnly(t *testing.T) {
	inj := vfs.NewInjecting(vfs.OS{})
	o := fwCurve(t)
	e, err := Open(t.TempDir(), o, fwOpts(inj))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close() //nolint:errcheck
	for i := 0; i < 5; i++ {
		if err := e.Put(fwPoint(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	inj.SetFaults(vfs.Fault{Op: vfs.OpSync, Path: "wal-", N: 1})
	err = e.Put(fwPoint(5), 5)
	if !errors.Is(err, ErrReadOnly) || !errors.Is(err, ErrWAL) || !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("failed-fsync write error = %v, want ErrReadOnly wrapping ErrWAL and the injected fault", err)
	}
	if h, cause := e.Health(); h != ReadOnly || cause == nil {
		t.Fatalf("health after fsync failure = %v (cause %v), want ReadOnly", h, cause)
	}
	// Sticky: the next write is rejected without touching the log.
	if err := e.Put(fwPoint(6), 6); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write after ReadOnly = %v, want ErrReadOnly", err)
	}
	// Queries keep serving the acknowledged data.
	recs, _, err := e.Query(o.Universe().Rect())
	if err != nil || len(recs) != 5 {
		t.Fatalf("query on ReadOnly engine: %d records, err %v", len(recs), err)
	}
}

func TestENOSPCTurnsReadOnly(t *testing.T) {
	inj := vfs.NewInjecting(vfs.OS{})
	o := fwCurve(t)
	e, err := Open(t.TempDir(), o, fwOpts(inj))
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close() //nolint:errcheck
	for i := 0; i < 5; i++ {
		if err := e.Put(fwPoint(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	inj.SetFaults(vfs.Fault{Op: vfs.OpWrite, Path: "wal-", N: 1, Kind: vfs.KindNoSpace})
	err = e.Put(fwPoint(5), 5)
	if !errors.Is(err, ErrReadOnly) || !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("ENOSPC write error = %v, want ErrReadOnly wrapping ENOSPC", err)
	}
	if err := e.Put(fwPoint(6), 6); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write after ENOSPC = %v, want ErrReadOnly", err)
	}
	recs, _, err := e.Query(o.Universe().Rect())
	if err != nil || len(recs) != 5 {
		t.Fatalf("query on full disk: %d records, err %v", len(recs), err)
	}
}

func TestFlushRetriesThenReadOnly(t *testing.T) {
	inj := vfs.NewInjecting(vfs.OS{})
	o := fwCurve(t)
	dir := t.TempDir()
	opts := Options{PageBytes: 192, FlushEntries: 8, compactFanout: -1, FS: inj,
		retryBase: time.Millisecond, retryCap: 4 * time.Millisecond, retryAttempts: 3}
	e, err := Open(dir, o, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Every segment build fails: the background flush retries with
	// backoff, runs out of attempts, and the engine goes ReadOnly —
	// acked data is stranded in memory and further writes only grow the
	// unflushable debt.
	inj.SetFaults(vfs.Fault{Path: ".pst.tmp", N: 1, Repeat: true})
	for i := 0; i < 8; i++ {
		if err := e.Put(fwPoint(i), uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	cause := waitHealth(t, e, ReadOnly)
	if !errors.Is(cause, vfs.ErrInjected) {
		t.Fatalf("degradation cause = %v, want the injected fault", cause)
	}
	if err := e.BackgroundErr(); err == nil {
		t.Fatal("BackgroundErr = nil after exhausted flush retries")
	}
	if err := e.Put(fwPoint(20), 20); !errors.Is(err, ErrReadOnly) {
		t.Fatalf("write after flush exhaustion = %v, want ErrReadOnly", err)
	}
	recs, _, err := e.Query(o.Universe().Rect())
	if err != nil || len(recs) != 8 {
		t.Fatalf("query on ReadOnly engine: %d records, err %v", len(recs), err)
	}
	// The fault clears (space freed); Close flushes the stranded
	// memtables and nothing acked is lost.
	inj.SetFaults()
	if err := e.Close(); err != nil {
		t.Fatalf("close after fault cleared: %v", err)
	}
	e2, err := Open(dir, o, Options{PageBytes: 192, FlushEntries: -1, compactFanout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	recs, _, err = e2.Query(o.Universe().Rect())
	if err != nil || len(recs) != 8 {
		t.Fatalf("reopen after recovery: %d records, err %v", len(recs), err)
	}
}

func TestCompactionFailureDegrades(t *testing.T) {
	inj := vfs.NewInjecting(vfs.OS{})
	o := fwCurve(t)
	opts := Options{PageBytes: 192, FlushEntries: -1, compactFanout: 2, FS: inj,
		retryBase: time.Millisecond, retryCap: 4 * time.Millisecond, retryAttempts: 2}
	e, err := Open(t.TempDir(), o, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close() //nolint:errcheck
	for phase := 0; phase < 2; phase++ {
		for i := 0; i < 20; i++ {
			if err := e.Put(fwPoint(phase*20+i), uint64(phase*20+i)); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	inj.SetFaults(vfs.Fault{Path: ".pst.tmp", N: 1, Repeat: true})
	if err := e.retryBg(e.maybeCompact, Degraded); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("compaction under injection = %v, want the injected fault", err)
	}
	if h, cause := e.Health(); h != Degraded || !errors.Is(cause, vfs.ErrInjected) {
		t.Fatalf("health = %v (cause %v), want Degraded", h, cause)
	}
	// Degraded keeps full service: writes and queries both work — the
	// engine is just getting wider, not less durable.
	if err := e.Put(fwPoint(50), 50); err != nil {
		t.Fatalf("write on Degraded engine: %v", err)
	}
	recs, _, err := e.Query(o.Universe().Rect())
	if err != nil {
		t.Fatalf("query on Degraded engine: %v", err)
	}
	if len(recs) == 0 {
		t.Fatal("degraded query returned nothing")
	}
	// Health is monotonic: a later successful compaction does not heal.
	inj.SetFaults()
	if err := e.maybeCompact(); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Compactions == 0 {
		t.Fatal("compaction without faults merged nothing")
	}
	if h, _ := e.Health(); h != Degraded {
		t.Fatalf("health after recovery = %v, want still Degraded", h)
	}
}

// quarantineFixture builds an engine with two disjoint flushed segments
// (row y=0 and row y=1, 60 points each) and corrupts a byte in the
// middle of the first segment's page data.
func quarantineFixture(t *testing.T, dir string) (*Engine, curve.Curve) {
	t.Helper()
	o := fwCurve(t)
	e, err := Open(dir, o, Options{PageBytes: 192, FlushEntries: -1, compactFanout: -1})
	if err != nil {
		t.Fatal(err)
	}
	for row := uint32(0); row < 2; row++ {
		for x := uint32(0); x < 60; x++ {
			if err := e.Put(geom.Point{x, row}, uint64(row*1000+x)); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if len(e.segs) != 2 {
		t.Fatalf("fixture has %d segments, want 2", len(e.segs))
	}
	victim := e.segs[0].path
	fi, err := os.Stat(victim)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(victim, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	// The middle of the file is deep inside the page data region (the
	// header, index and footer are a small fraction of 60 records).
	var b [1]byte
	off := fi.Size() / 2
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x40
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	return e, o
}

// rowRecords counts records per row in a full-scan result.
func rowRecords(recs []Record) map[uint32]int {
	rows := make(map[uint32]int)
	for _, r := range recs {
		rows[r.Point[1]]++
	}
	return rows
}

func TestVerifyQuarantinesCorruptSegment(t *testing.T) {
	dir := t.TempDir()
	e, o := quarantineFixture(t, dir)
	defer e.Close() //nolint:errcheck

	rep, err := e.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if rep.SegmentsChecked != 2 || len(rep.Quarantined) != 1 {
		t.Fatalf("report %+v, want 2 checked / 1 quarantined", rep)
	}
	q := rep.Quarantined[0]
	if q.Empty || q.Lo > q.Hi || q.Records != 60 || !errors.Is(q.Cause, ErrCorrupt) {
		t.Fatalf("quarantine report %+v", q)
	}
	if filepath.Base(filepath.Dir(q.Path)) != "quarantine" {
		t.Fatalf("quarantined file at %s, want under quarantine/", q.Path)
	}
	if _, err := os.Stat(q.Path); err != nil {
		t.Fatalf("quarantined file missing: %v", err)
	}
	if h, cause := e.Health(); h != Degraded || !errors.Is(cause, ErrCorrupt) {
		t.Fatalf("health = %v (cause %v), want Degraded with the corruption cause", h, cause)
	}

	// The remaining segment keeps serving: row 1 intact, row 0 gone.
	recs, _, err := e.Query(o.Universe().Rect())
	if err != nil {
		t.Fatalf("query after quarantine: %v", err)
	}
	if rows := rowRecords(recs); rows[0] != 0 || rows[1] != 60 {
		t.Fatalf("rows after quarantine %v, want row 1 only", rows)
	}

	// A reopen must not resurrect the quarantined file.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	e2, err := Open(dir, o, Options{PageBytes: 192, FlushEntries: -1, compactFanout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	recs, _, err = e2.Query(o.Universe().Rect())
	if err != nil {
		t.Fatal(err)
	}
	if rows := rowRecords(recs); rows[0] != 0 || rows[1] != 60 {
		t.Fatalf("rows after reopen %v, want row 1 only", rows)
	}
}

func TestQueryTriggersBackgroundScrub(t *testing.T) {
	e, o := quarantineFixture(t, t.TempDir())
	defer e.Close() //nolint:errcheck

	// The first scan trips over the damaged page and reports it...
	_, _, err := e.Query(o.Universe().Rect())
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("query over corrupt segment = %v, want ErrCorrupt", err)
	}
	// ...which queues a background Verify that quarantines the segment.
	cause := waitHealth(t, e, Degraded)
	if !errors.Is(cause, ErrCorrupt) {
		t.Fatalf("degradation cause = %v, want corruption", cause)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		recs, _, err := e.Query(o.Universe().Rect())
		if err == nil {
			if rows := rowRecords(recs); rows[0] != 0 || rows[1] != 60 {
				t.Fatalf("rows after scrub %v, want row 1 only", rows)
			}
			break
		}
		if !errors.Is(err, ErrCorrupt) {
			t.Fatalf("query while scrub pending = %v", err)
		}
		if time.Now().After(deadline) {
			t.Fatal("query never recovered after background scrub")
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestManualEngineCompactsNothingAfterScrub: with automatic flushing
// off the caller runs Flush and Compact, so the doorbell a corrupt query
// rings runs the pending Verify and nothing else — not even when the
// surviving segments form a run the size-tiered policy would merge.
func TestManualEngineCompactsNothingAfterScrub(t *testing.T) {
	o := fwCurve(t)
	e, err := Open(t.TempDir(), o, Options{PageBytes: 192, FlushEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close() //nolint:errcheck
	for row := uint32(0); row < 5; row++ {
		for x := uint32(0); x < 60; x++ {
			if err := e.Put(geom.Point{x, row}, uint64(x)); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if n := len(e.segs); n != 5 {
		t.Fatalf("fixture has %d segments, want 5", n)
	}
	corruptFile(t, e.segs[0].path)
	if _, _, err := e.Query(o.Universe().Rect()); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("query over corrupt segment = %v, want ErrCorrupt", err)
	}
	waitHealth(t, e, Degraded)
	// Close waits out the background worker's current ring.
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if st := e.Stats(); st.Compactions != 0 {
		t.Fatalf("manual engine ran %d compactions after a scrub ring, want 0", st.Compactions)
	}
}

// errAfter is a cancellable context whose Err reports context.Canceled
// from its k-th call on: a cancellation that lands at a chosen poll.
type errAfter struct {
	context.Context // a live cancellable context: Done is non-nil, so the query polls
	k, calls        int
}

func (c *errAfter) Err() error {
	if c.calls++; c.calls >= c.k {
		return context.Canceled
	}
	return nil
}

// TestQueryCanceledMidDrain cancels a one-range plan over a multi-page
// segment, the range's one source, at each poll in turn. The query polls
// once before the range and once after every page the drain appends, so a
// cancellation at the k-th poll returns context.Canceled, exactly
// dst[:base] and k-1 pages read — never a page past the poll — and counts
// one engine_query_errors_total. A context that never cancels serves the
// whole segment.
func TestQueryCanceledMidDrain(t *testing.T) {
	o := fwCurve(t)
	e, err := Open(t.TempDir(), o, Options{PageBytes: 192, FlushEntries: -1, compactFanout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	size := o.Universe().Size()
	for k := uint64(0); k < size; k += 3 {
		if err := e.Put(o.Coords(k, nil), k); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	krs := []curve.KeyRange{{Lo: 0, Hi: size - 1}}
	all, full, err := e.QueryRanges(context.Background(), nil, krs)
	if err != nil {
		t.Fatal(err)
	}
	pages := full.PagesRead
	if pages < 4 || len(all) != int((size+2)/3) {
		t.Fatalf("fixture: %d records over %d pages, want %d records over several", len(all), pages, (size+2)/3)
	}
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	dst := []Record{{Point: fwPoint(7), Payload: 7}}
	for i, k := range []int{1, 2, 3, pages / 2, pages, pages + 1} {
		ctx := &errAfter{Context: live, k: k}
		got, st, err := e.QueryRanges(ctx, dst, krs)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("cancel at poll %d: %v, want context.Canceled", k, err)
		}
		if len(got) != 1 || got[0].Payload != 7 {
			t.Fatalf("cancel at poll %d: returned %d records, want dst[:base]", k, len(got))
		}
		if st.PagesRead != k-1 {
			t.Fatalf("cancel at poll %d: %d pages read, want %d", k, st.PagesRead, k-1)
		}
		if n := e.TelemetrySnapshot().Counter("engine_query_errors_total"); n != uint64(i+1) {
			t.Fatalf("cancel at poll %d: engine_query_errors_total = %d, want %d", k, n, i+1)
		}
	}
	got, st, err := e.QueryRanges(&errAfter{Context: live, k: pages + 2}, dst, krs)
	if err != nil || len(got) != 1+len(all) || st.PagesRead != pages {
		t.Fatalf("uncancelled drain: %d records over %d pages, %v; want %d over %d", len(got), st.PagesRead, err, 1+len(all), pages)
	}
}

// TestQueryRangesContextCanceled: a cancelled context stops both the
// pre-planned and the rectangle path with ctx.Err(), hands back exactly
// the caller's dst, and counts one query error each — the same ctx check
// in the one body serves both.
func TestQueryRangesContextCanceled(t *testing.T) {
	o := fwCurve(t)
	e, err := Open(t.TempDir(), o, Options{PageBytes: 192, FlushEntries: -1, compactFanout: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.Put(fwPoint(1), 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	krs := []curve.KeyRange{{Lo: 0, Hi: o.Universe().Size() - 1}}
	full := o.Universe().Rect()
	dst := []Record{{Point: fwPoint(7), Payload: 7}}
	for i, query := range []func(context.Context) ([]Record, Stats, error){
		func(ctx context.Context) ([]Record, Stats, error) { return e.QueryRanges(ctx, dst, krs) },
		func(ctx context.Context) ([]Record, Stats, error) { return e.QueryAppendContext(ctx, dst, full) },
	} {
		got, _, err := query(ctx)
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("path %d: canceled query = %v, want context.Canceled", i, err)
		}
		if len(got) != 1 || got[0].Payload != 7 {
			t.Fatalf("path %d: canceled query returned %v, want dst[:base]", i, got)
		}
		if n := e.TelemetrySnapshot().Counter("engine_query_errors_total"); n != uint64(i+1) {
			t.Fatalf("path %d: engine_query_errors_total = %d, want %d", i, n, i+1)
		}
		// The background context path still works, appending after base.
		if got, _, err = query(context.Background()); err != nil || len(got) != 2 {
			t.Fatalf("path %d: live query = %d records, %v; want 2, nil", i, len(got), err)
		}
	}
	if n := e.TelemetrySnapshot().Counter("engine_queries_total"); n != 2 {
		t.Fatalf("engine_queries_total = %d, want 2", n)
	}
}
