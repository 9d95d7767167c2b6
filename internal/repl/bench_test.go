package repl

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/geom"
)

const benchSide = 64

func benchEngOpts() engine.Options {
	return engine.Options{PageBytes: 4096, SyncWrites: true}
}

// benchProducers drives exactly b.N durable puts split across 16
// closed-loop producer goroutines — the synchronous workload both
// variants below share, so the only delta between them is the
// replication tax per committed batch. Before the clock starts the same
// producers put one more than the default resend window: the timed
// region runs against a full window that trims on every append, which
// is the state a leader spends its life in.
func benchProducers(b *testing.B, put func(geom.Point, uint64) error) {
	b.Helper()
	const producers = 16
	drive := func(total int) {
		base, extra := total/producers, total%producers
		var wg sync.WaitGroup
		for w := 0; w < producers; w++ {
			n := base
			if w < extra {
				n++
			}
			wg.Add(1)
			go func(w, n int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(w) + 1))
				for i := 0; i < n; i++ {
					pt := geom.Point{uint32(rng.Int31n(benchSide)), uint32(rng.Int31n(benchSide))}
					if err := put(pt, rng.Uint64()); err != nil {
						b.Error(err)
						return
					}
				}
			}(w, n)
		}
		wg.Wait()
	}
	drive(Config{}.withDefaults().HistoryEntries + 1)
	b.ResetTimer()
	drive(b.N)
}

// BenchmarkReplIngest compares durable synchronous ingest without
// replication (solo) against the same workload quorum-committed across
// a 3-replica group (r3: leader + 2 in-process followers, majority
// quorum 2). The ratio is the price of "fsynced on a quorum" over
// "fsynced here" — CI gates it at 2.5x.
func BenchmarkReplIngest(b *testing.B) {
	c, err := core.NewOnion2D(benchSide)
	if err != nil {
		b.Fatal(err)
	}

	b.Run("solo", func(b *testing.B) {
		e, err := engine.Open(b.TempDir(), c, benchEngOpts())
		if err != nil {
			b.Fatal(err)
		}
		defer e.Close() //nolint:errcheck
		benchProducers(b, e.Put)
	})

	b.Run("r3", func(b *testing.B) {
		dir := b.TempDir()
		lb := NewLoopback()
		var followers []*Follower
		var peers []string
		for i := 1; i <= 2; i++ {
			id := fmt.Sprintf("f%d", i)
			f, err := OpenFollower(id, filepath.Join(dir, id), c, FollowerOptions{Engine: benchEngOpts()})
			if err != nil {
				b.Fatal(err)
			}
			defer f.Close() //nolint:errcheck
			lb.Register(id, f)
			followers = append(followers, f)
			peers = append(peers, id)
		}
		g, err := Lead(filepath.Join(dir, "leader"), c, Config{
			ID: "leader", Peers: peers, Transport: lb, Engine: benchEngOpts(),
		})
		if err != nil {
			b.Fatal(err)
		}
		defer g.Close() //nolint:errcheck
		benchProducers(b, g.Engine().Put)
		b.StopTimer()
		// Convergence outside the timed region: the gate measures the
		// quorum-commit path, not end-of-run catch-up.
		g.Heartbeat()
		for _, f := range followers {
			if st := f.Status(); st.Applied != st.Last {
				b.Fatalf("follower %s did not converge: applied %d last %d", st.ID, st.Applied, st.Last)
			}
		}
	})
}
