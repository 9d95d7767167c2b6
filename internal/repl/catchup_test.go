package repl

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/onioncurve/onion/internal/engine"
)

// seedCfg is a two-follower group config with a tiny resend window (a
// lagging peer must seed) and a leader that flushes every eight ops, so
// WALs retire all along a test.
func seedCfg() Config {
	opts := rtEngOpts()
	opts.FlushEntries = 8
	return Config{
		historyEntries:     8,
		seedRefreshEntries: 1 << 20,
		engineOpts:         opts,
		retryBase:          time.Millisecond,
		retryCap:           2 * time.Millisecond,
		retryAttempts:      2,
	}
}

// putRange writes rtPoint(i%40) = 100+i for i in [from, to), one batch
// per op, so later ranges overwrite earlier keys.
func putRange(t *testing.T, e *engine.Engine, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		if err := e.Put(rtPoint(i%40), uint64(100+i)); err != nil {
			t.Fatal(err)
		}
	}
}

// converge drives heartbeats until follower f holds everything the
// leader committed, and fails the test if it never does.
func converge(t *testing.T, g *Group, f *Follower) FollowerStatus {
	t.Helper()
	for i := 0; i < 50; i++ {
		g.Heartbeat()
		if st := f.Status(); !st.MustSeed && st.Applied == st.Last && g.Lag()[f.id] == 0 {
			return st
		}
	}
	st := f.Status()
	t.Fatalf("%s did not converge: %+v, lag %d", f.id, st, g.Lag()[f.id])
	return st
}

func assertNoArchive(t *testing.T, dir, who string) {
	t.Helper()
	if _, err := os.Stat(filepath.Join(dir, "archive")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("%s: archive/ stat = %v, want absent", who, err)
	}
}

// TestReplSeedsDoNotArchive: a leader that has only exported seeds keeps
// no WAL archive, however many flushes retire its WALs, and every seed's
// manifest names no archive. A user snapshot of the same leader still
// starts the archive, and restores past its boundary from it: seeds do
// not take point-in-time restore away from the leader.
func TestReplSeedsDoNotArchive(t *testing.T) {
	cl := newCluster(t, 2, seedCfg())
	e := cl.g.Engine()
	f2 := cl.fs[1]

	putRange(t, e, 0, 10)
	cl.g.Heartbeat()
	for round := 0; round < 3; round++ {
		// f2 drops off, the window rolls past it, the leader flushes
		// several times, and f2 comes back through a seed.
		cl.tr.Partition("f2")
		seeds := f2.Status().Seeds
		// A flush every 8 puts, as FlushEntries asks of the background
		// flusher: under load it coalesces them, and the count below must
		// not rest on its pace.
		for from := 10 + 40*round; from < 50+40*round; from += 8 {
			putRange(t, e, from, from+8)
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		cl.tr.Heal()
		converge(t, cl.g, f2)
		if st := f2.Status(); st.Seeds <= seeds {
			t.Fatalf("round %d: f2 rejoined without a seed: %+v", round, st)
		}
		man, err := os.ReadFile(filepath.Join(cl.g.dir+"-seed", "SNAPSHOT"))
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(man), "\narchive -\n") {
			t.Fatalf("round %d: seed manifest names an archive:\n%s", round, man)
		}
	}
	if st := e.Stats(); st.Flushes < 10 {
		t.Fatalf("the leader flushed %d times: the test must retire WALs", st.Flushes)
	}
	assertNoArchive(t, cl.g.dir, "leader after seeds only")
	converge(t, cl.g, cl.fs[0])
	want := stateOf(t, cl.c, e)
	assertSameState(t, cl.c, want, cl.fs[0].Engine(), "f1")
	assertSameState(t, cl.c, want, f2.Engine(), "f2")

	snap := filepath.Join(t.TempDir(), "snap")
	if _, err := e.Snapshot(snap); err != nil {
		t.Fatal(err)
	}
	putRange(t, e, 200, 230)
	if err := e.Flush(); err != nil {
		t.Fatal(err)
	}
	if n := archivedWALs(t, cl.g.dir); n == 0 {
		t.Fatal("a user snapshot of the leader did not start its WAL archive")
	}
	restored := filepath.Join(t.TempDir(), "restored")
	rep, err := engine.Restore(snap, restored, -1, cl.c, rtEngOpts())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replayed != 30 {
		t.Fatalf("restore of the user snapshot replayed %d records, want 30", rep.Replayed)
	}
	re, err := engine.Open(restored, cl.c, rtEngOpts())
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	assertSameState(t, cl.c, stateOf(t, cl.c, e), re, "restore of the leader's user snapshot")
}

// TestReplCachedSeedCatchesUpFromWindow: a seed exported before the
// leader moved on is reused for a follower that fell out of the resend
// window. The seed restores to its own base only; every entry past it
// comes from the window, and the follower ends bit-identical to the
// leader.
func TestReplCachedSeedCatchesUpFromWindow(t *testing.T) {
	cl := newCluster(t, 2, seedCfg())
	e := cl.g.Engine()
	f2 := cl.fs[1]

	putRange(t, e, 0, 10)
	cl.g.Heartbeat()
	cl.tr.Partition("f2")
	putRange(t, e, 10, 40) // the window rolls past f2
	// The catch-up loop may have exported a seed while f2 was away; the
	// call below reuses it if the window still bridges it, or exports
	// one, which two more entries then age.
	_, base, _, err := cl.g.ensureSeed()
	if err != nil {
		t.Fatal(err)
	}
	cl.g.mu.Lock()
	fresh := base == cl.g.nextIndex
	cl.g.mu.Unlock()
	if fresh {
		putRange(t, e, 40, 42)
	}
	cl.g.mu.Lock()
	inWindow := base >= cl.g.histBase && base < cl.g.nextIndex
	cl.g.mu.Unlock()
	if !inWindow {
		t.Fatalf("seed base %d: the test needs it inside the window and behind the leader", base)
	}
	seeds := f2.Status().Seeds
	cl.tr.Heal()
	st := converge(t, cl.g, f2)
	if st.Seeds != seeds+1 || st.Base != base {
		t.Fatalf("f2 after the cached seed at %d: %+v (seeds before %d)", base, st, seeds)
	}
	converge(t, cl.g, cl.fs[0])
	want := stateOf(t, cl.c, e)
	assertSameState(t, cl.c, want, cl.fs[0].Engine(), "f1")
	assertSameState(t, cl.c, want, f2.Engine(), "f2")
	assertNoArchive(t, cl.g.dir, "leader")
}

// seedHook delivers seeds to a follower and runs after once a seed is
// restored, before the follower's answer reaches the leader.
type seedHook struct {
	*Follower
	after func(SeedRequest)
}

func (h seedHook) HandleSeed(req SeedRequest) (SeedResponse, error) {
	resp, err := h.Follower.HandleSeed(req)
	if h.after != nil {
		h.after(req)
	}
	return resp, err
}

// TestReplSeedOutlastingWindowReseeds: while a follower restores a seed,
// the leader writes enough to trim the seed's base out of the resend
// window. The follower acknowledges a base the window no longer bridges,
// so the leader seeds it again (a fresh export: the cached one is out of
// the window too), and the follower converges.
func TestReplSeedOutlastingWindowReseeds(t *testing.T) {
	cl := newCluster(t, 2, seedCfg())
	e := cl.g.Engine()
	f2 := cl.fs[1]

	putRange(t, e, 0, 10)
	cl.g.Heartbeat()
	cl.tr.Partition("f2")
	putRange(t, e, 10, 40)
	// The hook runs on the leader's catch-up goroutine: it records what
	// it saw for the test goroutine to check, and must not call t.Fatal.
	var (
		mu       sync.Mutex
		slowBase uint64
		seeded   bool
		putErr   error
	)
	cl.lb.Register("f2", seedHook{Follower: f2, after: func(req SeedRequest) {
		mu.Lock()
		defer mu.Unlock()
		if seeded {
			return
		}
		seeded, slowBase = true, req.Base
		for i := 40; i < 70 && putErr == nil; i++ { // the window rolls past req.Base meanwhile
			putErr = e.Put(rtPoint(i%40), uint64(100+i))
		}
	}})
	seeds := f2.Status().Seeds
	cl.tr.Heal()
	st := converge(t, cl.g, f2)
	mu.Lock()
	defer mu.Unlock()
	if !seeded || putErr != nil {
		t.Fatalf("f2 seeded %v, leader writes during the seed: %v", seeded, putErr)
	}
	cl.g.mu.Lock()
	outlasted := slowBase < cl.g.histBase
	cl.g.mu.Unlock()
	if !outlasted {
		t.Fatalf("the window still bridges the first seed's base %d: nothing outlasted it", slowBase)
	}
	if st.Seeds < seeds+2 || st.Base <= slowBase {
		t.Fatalf("f2 after a seed that outlasted the window: %+v, first seed base %d (seeds before %d)", st, slowBase, seeds)
	}
	converge(t, cl.g, cl.fs[0])
	want := stateOf(t, cl.c, e)
	assertSameState(t, cl.c, want, cl.fs[0].Engine(), "f1")
	assertSameState(t, cl.c, want, f2.Engine(), "f2")
	assertNoArchive(t, cl.g.dir, "leader")
}
