package repl

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"github.com/onioncurve/onion/internal/engine"
)

// TestReplSeedWithArchivedWALs partitions a follower until the leader's
// resend window has rolled past it AND the leader's WAL history has
// rotated into the archive across several flush cycles, then heals and
// proves the rejoin path — snapshot restore plus archived-WAL replay
// plus resend of the live tail — converges bit-identically. This is the
// archive-replay variant of seeding: the restored engine may land ahead
// of the seed base because the archive replays past the snapshot's
// flush point, and the follower's LWW re-application of the resend
// window must absorb that overlap.
func TestReplSeedWithArchivedWALs(t *testing.T) {
	opts := engine.Options{
		PageBytes:     192,
		FlushEntries:  8, // frequent flushes rotate WALs into the archive
		CompactFanout: -1,
	}
	cl := newCluster(t, 2, Config{
		HistoryEntries:     4, // tiny resend window: a lagging peer must seed
		SeedRefreshEntries: 1 << 20,
		Engine:             opts,
		retryBase:          time.Millisecond,
		retryCap:           2 * time.Millisecond,
		retryAttempts:      2,
	})
	e := cl.g.Engine()

	// A few committed writes, then f2 drops off the network.
	for i := 0; i < 10; i++ {
		if err := e.Put(rtPoint(i), uint64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	cl.g.Heartbeat()
	cl.tr.Partition("f2")
	// The leader archives from its first snapshot on. The catch-up loop
	// exports a seed once f2 falls behind the window; export one now so
	// the archive does not depend on when that happens.
	if _, _, _, err := cl.g.ensureSeed(); err != nil {
		t.Fatal(err)
	}

	// Enough writes to blow past the resend window and cycle several
	// memtable flushes, so retired WALs pile up in the archive that the
	// seed restore will replay.
	for i := 10; i < 70; i++ {
		if err := e.Put(rtPoint(i%40), uint64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
	leaderDir := filepath.Join(filepath.Dir(cl.fs[0].dir), "leader")
	wals, err := os.ReadDir(filepath.Join(leaderDir, "archive"))
	if err != nil || len(wals) == 0 {
		t.Fatalf("expected archived WALs on the leader (err %v, %d files): the test must exercise archive replay", err, len(wals))
	}

	cl.tr.Heal()
	for i := 0; i < 30; i++ {
		cl.g.Heartbeat()
		if st := cl.fs[1].Status(); st.Seeds > 0 && st.Applied == st.Last && cl.g.Lag()["f2"] == 0 {
			break
		}
	}
	st := cl.fs[1].Status()
	if st.Seeds == 0 {
		t.Fatalf("f2 rejoined without seeding (applied %d last %d)", st.Applied, st.Last)
	}
	if st.Applied != st.Last || cl.g.Lag()["f2"] != 0 {
		t.Fatalf("f2 did not converge: applied %d last %d lag %d", st.Applied, st.Last, cl.g.Lag()["f2"])
	}
	want := stateOf(t, cl.c, e)
	assertSameState(t, cl.c, want, cl.fs[0].Engine(), "f1")
	assertSameState(t, cl.c, want, cl.fs[1].Engine(), "f2")
}
