package engine

import (
	"path/filepath"
	"testing"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/pagedstore"
	"github.com/onioncurve/onion/internal/vfs"
)

// checkSegmentKeys reads every live segment of e front to back and holds
// each entry to what the segment writer trusts its producer for: keys
// inside the curve's key space, strictly ascending (an engine segment
// holds one version per key). It returns how many segments and entries it
// saw.
func checkSegmentKeys(t *testing.T, stage string, e *Engine, c curve.Curve) (segs, ents int) {
	t.Helper()
	e.mu.RLock()
	defer e.mu.RUnlock()
	for _, s := range e.segs {
		cur := s.st.NewCursor()
		cur.Plan([]curve.KeyRange{{Lo: 0, Hi: c.Universe().Size() - 1}})
		cur.NextRange()
		var ent pagedstore.Entry
		n, prev := 0, uint64(0)
		for {
			ok, err := cur.NextInto(&ent)
			if err != nil {
				t.Fatalf("%s: %s: %v", stage, filepath.Base(s.path), err)
			}
			if !ok {
				break
			}
			if ent.Key >= c.Universe().Size() {
				t.Fatalf("%s: %s: entry %d has key %d outside the key space", stage, filepath.Base(s.path), n, ent.Key)
			}
			if n > 0 && ent.Key <= prev {
				t.Fatalf("%s: %s: entry %d has key %d after key %d", stage, filepath.Base(s.path), n, ent.Key, prev)
			}
			prev = ent.Key
			n++
		}
		if n != s.recs || n == 0 {
			t.Fatalf("%s: %s: read %d entries of %d", stage, filepath.Base(s.path), n, s.recs)
		}
		ents += n
	}
	return len(e.segs), ents
}

// TestSegmentKeysMatchCurve: pagedstore.WriteEntries writes the keys it is
// handed, so every path that builds a segment must hand it a clean run of
// the curve's keys.
// Each of the five producers — flush, compaction with tombstone GC, the
// recovery flush in Open, Restore's replay segment, and Repair's salvage
// plus backfill — is driven once and its output read back.
func TestSegmentKeysMatchCurve(t *testing.T) {
	ops := fwWorkload()
	o := fwCurve(t)
	dir := t.TempDir()
	snapDir := filepath.Join(t.TempDir(), "snap")
	apply := func(e *Engine, ops []fwOp) {
		t.Helper()
		for i, op := range ops {
			var err error
			if op.del {
				err = e.Delete(op.pt)
			} else {
				err = e.Put(op.pt, op.pay)
			}
			if err != nil {
				t.Fatalf("op %d: %v", i, err)
			}
		}
	}

	e, err := Open(dir, o, snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	apply(e, ops[:25])
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if segs, _ := checkSegmentKeys(t, "flush", e, o); segs != 1 {
		t.Fatalf("flush left %d segments, want 1", segs)
	}

	apply(e, ops[25:50])
	if _, err := e.Snapshot(snapDir); err != nil { // flushes: two segments, both in the snapshot
		t.Fatal(err)
	}
	_, before := checkSegmentKeys(t, "second flush", e, o)
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	segs, after := checkSegmentKeys(t, "compaction", e, o)
	if segs != 1 || after >= before {
		t.Fatalf("compaction left %d segments and %d of %d entries: no version or tombstone was dropped", segs, after, before)
	}

	// Acknowledged writes in the WAL only, then the directory as a crash
	// would leave it: Open replays the WAL and flushes it.
	apply(e, ops[50:])
	crash := t.TempDir()
	copyDir(t, dir, crash)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(crash, o, snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	if segs, _ := checkSegmentKeys(t, "recovery flush", re, o); segs != 2 {
		t.Fatalf("recovery left %d segments, want the compacted one and the recovered WAL", segs)
	}
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// Restore: the snapshot's two segments plus one built from the archive.
	target := filepath.Join(t.TempDir(), "restored")
	rep, err := Restore(snapDir, target, -1, o, snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != len(ops)-50 {
		t.Fatalf("restore replayed %d ops, want %d", rep.Replayed, len(ops)-50)
	}
	rs, err := Open(target, o, snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	if segs, _ := checkSegmentKeys(t, "restore", rs, o); segs != 3 {
		t.Fatalf("restore left %d segments, want 3", segs)
	}
	if err := rs.Close(); err != nil {
		t.Fatal(err)
	}

	// Repair: one page of a segment rots; the rewrite is the clean pages'
	// entries merged with the snapshot's for the damaged interval.
	rdir := t.TempDir()
	rsnap := filepath.Join(t.TempDir(), "snap")
	rp, ro, victim := twoRowEngine(t, rdir, fwOpts(vfs.NewInjecting(vfs.OS{})))
	defer rp.Close() //nolint:errcheck
	if _, err := rp.Snapshot(rsnap); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, victim)
	if _, err := rp.Verify(); err != nil {
		t.Fatal(err)
	}
	rrep, err := rp.Repair(rsnap)
	if err != nil {
		t.Fatal(err)
	}
	if rrep.Salvaged == 0 || rrep.Backfilled == 0 {
		t.Fatalf("repair report %+v: want both salvaged and back-filled entries in the rewrite", rrep)
	}
	if segs, ents := checkSegmentKeys(t, "repair", rp, ro); segs != 2 || ents != 120 {
		t.Fatalf("repair left %d segments with %d entries, want 2 with 120", segs, ents)
	}
}
