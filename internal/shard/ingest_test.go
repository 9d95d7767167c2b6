package shard

import (
	"context"
	"fmt"
	"sync"
	"testing"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/ingest"
)

// TestShardedIngestCrossCheck: concurrent producers through the striped
// async pipeline against the same op log applied serially through the
// router's synchronous Put/Delete — the sharded variant of the ingest
// cross-check. Per-key order is preserved by partitioning producers on
// curve key, so the full-rectangle query results (which merge every
// shard) must be record-for-record identical: a misrouted key would show
// up as a duplicate or a stale survivor.
func TestShardedIngestCrossCheck(t *testing.T) {
	c, err := core.NewOnion2D(32)
	if err != nil {
		t.Fatal(err)
	}
	const shards = 3
	for _, workers := range []int{1, 4} {
		t.Run(fmt.Sprintf("w%d", workers), func(t *testing.T) {
			ref, err := Open(t.TempDir(), c, manualShardOpts(shards))
			if err != nil {
				t.Fatal(err)
			}
			defer ref.Close()
			s, err := Open(t.TempDir(), c, manualShardOpts(shards))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			p, err := s.NewIngest(ingest.Config{})
			if err != nil {
				t.Fatal(err)
			}

			// One deterministic op log with recurring keys and deletes;
			// the serial reference applies it in order, the pipeline's
			// producers each own the keys congruent to their id.
			type sop struct {
				key uint64
				pay uint64
				del bool
			}
			u := c.Universe()
			ops := make([]sop, 0, 800)
			for i := 0; i < 800; i++ {
				key := uint64(i*31+7) % u.Size()
				if i%7 == 6 {
					ops = append(ops, sop{key: uint64(i*31+7-3*31) % u.Size(), del: true})
				} else {
					ops = append(ops, sop{key: key, pay: uint64(10_000 + i)})
				}
			}
			pts := make([]Record, len(ops))
			for i := range ops {
				pts[i].Point = c.Coords(ops[i].key, nil)
			}
			for i, op := range ops {
				var err error
				if op.del {
					err = ref.Delete(pts[i].Point)
				} else {
					err = ref.Put(pts[i].Point, op.pay)
				}
				if err != nil {
					t.Fatalf("serial op %d: %v", i, err)
				}
			}

			ctx := context.Background()
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i, op := range ops {
						if int(op.key%uint64(workers)) != w {
							continue
						}
						var err error
						if op.del {
							err = p.Delete(ctx, pts[i].Point)
						} else {
							err = p.Put(ctx, pts[i].Point, op.pay)
						}
						if err != nil {
							t.Errorf("producer %d op %d: %v", w, i, err)
							return
						}
					}
				}(w)
			}
			wg.Wait()
			if t.Failed() {
				return
			}
			if err := p.Close(); err != nil {
				t.Fatalf("pipeline close: %v", err)
			}

			full := u.Rect()
			want, _, err := ref.Query(full)
			if err != nil {
				t.Fatal(err)
			}
			got, _, err := s.Query(full)
			if err != nil {
				t.Fatal(err)
			}
			equalRecords(t, full, got, want)

			snap := p.Telemetry().Snapshot()
			if enq, acked := snap.Counter("ingest_enqueued_total"), snap.Counter("ingest_acked_total"); enq != acked || enq == 0 {
				t.Fatalf("telemetry: enqueued %d, acked %d", enq, acked)
			}
		})
	}
}

// TestShardedIngestClosedService: batches hitting a closed service fail
// cleanly through the handles instead of panicking or hanging.
func TestShardedIngestClosedService(t *testing.T) {
	c, err := core.NewOnion2D(32)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(t.TempDir(), c, manualShardOpts(2))
	if err != nil {
		t.Fatal(err)
	}
	p, err := s.NewIngest(ingest.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	err = p.Put(context.Background(), c.Coords(1, nil), 1)
	if err == nil {
		t.Fatal("Put into closed service acked")
	}
	if perr := p.Close(); perr == nil {
		t.Fatal("pipeline close after failed batches = nil, want the sticky error")
	}
}
