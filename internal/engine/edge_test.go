package engine

import (
	"path/filepath"
	"testing"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/curvetest"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/vfs"
)

// countingCurve returns fwCurve's curve wrapped to count its evaluations.
func countingCurve(t *testing.T) *curvetest.Counting {
	t.Helper()
	o, err := core.NewOnion2D(fwSide)
	if err != nil {
		t.Fatal(err)
	}
	return &curvetest.Counting{PlannedCurve: o}
}

// wantEvals fails unless c counted exactly index points and coords keys
// since its last reset, then resets it.
func wantEvals(t *testing.T, c *curvetest.Counting, stage string, index, coords int64) {
	t.Helper()
	if i, k := c.IndexKeys.Load(), c.CoordsKeys.Load(); i != index || k != coords {
		t.Fatalf("%s: curve evaluated at %d points and %d keys, want %d and %d", stage, i, k, index, coords)
	}
	c.Reset()
}

// identityKeys counts the keys computing c's identity evaluates.
func identityKeys(c *curvetest.Counting) int64 {
	c.Reset()
	curve.IdentityOf(c)
	defer c.Reset()
	return c.CoordsKeys.Load()
}

// TestCurveEvaluatedAtTheEdges counts where the engine evaluates its
// curve. A point becomes a key once, where a write enters: Put and Delete
// make one Index call each. A key becomes a point once, where a record
// leaves: a query maps back exactly the records it returns, and none of
// the shadowed versions and tombstones it merges past. Everything in
// between moves keys only: flush, compaction, repair's salvage and
// backfill, and Open's WAL replay evaluate the curve zero times. Open's
// one evaluation is the curve identity's fingerprint, a fixed number of
// keys whatever the directory holds.
func TestCurveEvaluatedAtTheEdges(t *testing.T) {
	c := countingCurve(t)
	dir := t.TempDir()
	e, err := Open(dir, c, snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	for i, op := range fwWorkload() {
		c.Reset()
		if op.del {
			err = e.Delete(op.pt)
		} else {
			err = e.Put(op.pt, op.pay)
		}
		if err != nil {
			t.Fatal(err)
		}
		wantEvals(t, c, "write", 1, 0)
		if (i+1)%fwFlushEvery == 0 {
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
			wantEvals(t, c, "flush", 0, 0)
		}
	}
	query := func(stage string) {
		t.Helper()
		recs, st, err := e.Query(c.Universe().Rect())
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 || st.RecordsScanned+st.MemEntries <= st.Results {
			t.Fatalf("%s: %d records of %d scanned and %d from memtables: no version was shadowed", stage, len(recs), st.RecordsScanned, st.MemEntries)
		}
		wantEvals(t, c, stage, 0, int64(st.Results))
	}
	query("query over segments and the memtable")
	if err := e.Compact(); err != nil {
		t.Fatal(err)
	}
	wantEvals(t, c, "compaction", 0, 0)
	for i := 0; i < 20; i++ { // shadow some of the compacted records
		if err := e.Put(fwPoint(i), 7); err != nil {
			t.Fatal(err)
		}
	}
	c.Reset()
	query("query after compaction")

	// Acknowledged writes in the WAL only: Open replays the key-tagged log.
	crash(e)
	idKeys := identityKeys(c)
	re, err := Open(dir, c, snapOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	wantEvals(t, c, "WAL replay", 0, idKeys)
	if err := re.Close(); err != nil {
		t.Fatal(err)
	}

	// Repair: one page of a segment rots, and the rewrite merges the clean
	// pages' entries with the snapshot's for the damaged interval.
	// (An injecting file system cannot hard-link, so the snapshot copies
	// the segment the test then damages.)
	rp, err := Open(t.TempDir(), c, fwOpts(vfs.NewInjecting(vfs.OS{})))
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close() //nolint:errcheck
	for row := uint32(0); row < 2; row++ {
		for x := uint32(0); x < 60; x++ {
			if err := rp.Put(geom.Point{x, row}, uint64(row*1000+x)); err != nil {
				t.Fatal(err)
			}
		}
		if err := rp.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	snap := filepath.Join(t.TempDir(), "snap")
	if _, err := rp.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	corruptFile(t, rp.segs[0].path)
	if _, err := rp.Verify(); err != nil {
		t.Fatal(err)
	}
	c.Reset()
	rep, err := rp.Repair(snap)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Salvaged == 0 || rep.Backfilled == 0 {
		t.Fatalf("repair report %+v: want both salvaged and back-filled entries", rep)
	}
	wantEvals(t, c, "repair", 0, 0)
}
