package ingest

import (
	"context"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/vfs"
)

// The ingest crash matrix re-runs a recorded async workload once per
// fault point on the enqueue→coalesce→commit→ack path: every WAL write
// and fsync, every segment build, install and retirement performed while
// the batcher is draining, each failing once and each crashing the
// filesystem once. The recovery contract differs from the synchronous
// fault matrix in one essential way: coalescing and curve-key sorting
// mean a torn batch is NOT a prefix of the global op log — but it IS a
// suffix-truncation per key, because each key's ops flow through one
// stripe in enqueue order. So the checker is per-key: the recovered value
// of key k must be the outcome of some op on k at or after k's last
// ACKED op (acks are durable — one fsync covered the whole batch), and a
// key may be absent only if it has no acked surviving write.

const (
	icWaves    = 6
	icWaveOps  = 16
	icCapacity = 256
	icMaxBatch = 8
)

func icOpts(fsys vfs.FS) engine.Options {
	o := igOpts()
	o.SyncWrites = true
	o.FS = fsys
	return o
}

// icRun drives the recorded workload through a fresh pipeline against
// dir: waves of async enqueues, a quiesce (Drain) and an explicit Flush
// after each wave so segment builds, installs and WAL retirements all
// happen while acked batches exist. The directory starts with the
// engine's archive/, as after its first snapshot, so every WAL
// retirement takes the archive path (rename and two directory fsyncs)
// rather than a single remove. Returns per-op acked flags.
func icRun(t *testing.T, dir string, fsys vfs.FS, ops []igOp) []bool {
	t.Helper()
	acked := make([]bool, len(ops))
	if err := os.MkdirAll(filepath.Join(dir, "archive"), 0o755); err != nil {
		t.Fatal(err)
	}
	e, err := engine.Open(dir, igCurve(t), icOpts(fsys))
	if err != nil {
		return acked // nothing ran, nothing acked
	}
	defer e.Close() //nolint:errcheck // a crashed filesystem cannot close cleanly
	p, err := NewEngine(e, Config{capacity: icCapacity, maxBatch: icMaxBatch})
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for w := 0; w < icWaves; w++ {
		lo := w * icWaveOps
		hs := make([]*Handle, 0, icWaveOps)
		for i := lo; i < lo+icWaveOps && i < len(ops); i++ {
			var h *Handle
			var herr error
			if ops[i].del {
				h, herr = p.DeleteAsync(ctx, ops[i].pt)
			} else {
				h, herr = p.PutAsync(ctx, ops[i].pt, ops[i].pay)
			}
			if herr != nil {
				hs = append(hs, nil)
				continue
			}
			hs = append(hs, h)
		}
		for j, h := range hs {
			if h != nil && h.Wait(ctx) == nil {
				acked[lo+j] = true
			}
		}
		e.Flush() //nolint:errcheck // fault runs flush into injected errors
	}
	p.Close() //nolint:errcheck // sticky batch errors are expected here
	return acked
}

// icRecover reopens dir on the real filesystem and returns the surviving
// key → payload map.
func icRecover(t *testing.T, dir string, o curve.Curve) map[uint64]uint64 {
	t.Helper()
	e, err := engine.Open(dir, o, igOpts())
	if err != nil {
		t.Fatalf("reopen after fault: %v", err)
	}
	defer e.Close()
	recs, _, err := e.Query(o.Universe().Rect())
	if err != nil {
		t.Fatalf("query after fault: %v", err)
	}
	got := make(map[uint64]uint64, len(recs))
	for _, r := range recs {
		got[o.Index(r.Point)] = r.Payload
	}
	return got
}

// icCheck is the per-key acked-suffix consistency checker described at
// the top of the file.
func icCheck(t *testing.T, o curve.Curve, ops []igOp, acked []bool, got map[uint64]uint64) {
	t.Helper()
	type ko struct {
		idx int
		pay uint64
		del bool
	}
	byKey := make(map[uint64][]ko)
	for i, op := range ops {
		k := o.Index(op.pt)
		byKey[k] = append(byKey[k], ko{i, op.pay, op.del})
	}
	for k, seq := range byKey {
		last := -1
		for j, op := range seq {
			if acked[op.idx] {
				last = j
			}
		}
		v, present := got[k]
		legal := last == -1 && !present // no acked op: never-applied is fine
		for j := max(last, 0); j < len(seq) && !legal; j++ {
			if seq[j].del {
				legal = !present
			} else {
				legal = present && v == seq[j].pay
			}
		}
		if !legal {
			t.Errorf("key %d: recovered (present=%v, payload=%d) matches no state at or after "+
				"its last acked op (%d of %d ops on this key)", k, present, v, last+1, len(seq))
		}
	}
	for k := range got {
		if _, ok := byKey[k]; !ok {
			t.Errorf("recovered key %d was never written", k)
		}
	}
}

// icFinal is the fully-applied state — every op in log order.
func icFinal(o curve.Curve, ops []igOp) map[uint64]uint64 {
	m := make(map[uint64]uint64)
	for _, op := range ops {
		k := o.Index(op.pt)
		if op.del {
			delete(m, k)
		} else {
			m[k] = op.pay
		}
	}
	return m
}

func TestIngestCrashMatrix(t *testing.T) {
	ops := igWorkload(icWaves * icWaveOps)
	o := igCurve(t)

	filters := []vfs.Fault{
		{Op: vfs.OpWrite, Path: "wal-"},
		{Op: vfs.OpSync, Path: "wal-"},
		{Op: vfs.OpAny, Path: ".pst.tmp"},
		{Op: vfs.OpRename},
		{Op: vfs.OpSyncDir},
		{Op: vfs.OpRemove},
	}

	// Enumeration pass: count-only rules tally how many operations each
	// filter matches under the recorded async workload, and the fault-free
	// run pins the baseline (everything acked, everything recovered).
	inj := vfs.NewInjecting(vfs.OS{})
	inj.SetFaults(filters...)
	enumDir := t.TempDir()
	acked := icRun(t, enumDir, inj, ops)
	for i, a := range acked {
		if !a {
			t.Fatalf("fault-free run did not ack op %d", i)
		}
	}
	if got := icRecover(t, enumDir, o); !maps.Equal(got, icFinal(o, ops)) {
		t.Fatalf("fault-free run recovered %d records, want the full final state", len(got))
	}

	maxPoints := int64(5)
	if testing.Short() {
		maxPoints = 2
	}
	for fi, f := range filters {
		total := inj.Matched(fi)
		if total == 0 {
			t.Fatalf("filter %+v matched no operations — the workload no longer exercises it", f)
		}
		stride := (total + maxPoints - 1) / maxPoints
		for _, kind := range []vfs.Kind{vfs.KindFail, vfs.KindCrash} {
			for n := int64(1); n <= total; n += stride {
				name := fmt.Sprintf("%s-%s-%s-n%d", f.Op, f.Path, kind, n)
				t.Run(name, func(t *testing.T) {
					dir := t.TempDir()
					ifs := vfs.NewInjecting(vfs.OS{})
					ifs.SetFaults(vfs.Fault{Op: f.Op, Path: f.Path, N: n, Kind: kind})
					got := icRun(t, dir, ifs, ops)
					if len(ifs.Injected()) == 0 {
						// Batch boundaries shift run to run, so a late fault
						// point may not be reached again; the run is then
						// fault-free and must behave like one.
						for i, a := range got {
							if !a {
								t.Fatalf("fault never fired but op %d was not acked", i)
							}
						}
					}
					icCheck(t, o, ops, got, icRecover(t, dir, o))
				})
			}
		}
	}
}
