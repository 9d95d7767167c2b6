package ingest

import (
	"context"
	"sync"
	"testing"

	"github.com/onioncurve/onion/internal/engine"
)

// fuzzTarget stripes a single engine by key modulus — deliberately NOT
// contiguous ranges, so consecutive curve keys land on different stripes
// and every batch crosses "shard" boundaries. Correctness only needs
// each key owned by one stripe, which modulus gives; the concurrent
// ApplyBatch calls then contend on the engine's WAL exactly like real
// shards contend on the filesystem.
type fuzzTarget struct {
	e *engine.Engine
	n int
}

func (f fuzzTarget) Stripes() int            { return f.n }
func (f fuzzTarget) StripeOf(key uint64) int { return int(key % uint64(f.n)) }
func (f fuzzTarget) ApplyBatch(_ int, ops []engine.BatchOp) error {
	return f.e.PutBatch(ops)
}

// FuzzIngestBatcher fuzzes op interleavings through a deliberately tiny
// pipeline — an 8-op budget (so enqueues race a full budget constantly),
// 5-op batches (so coalescing and batch boundaries churn), three
// modulus stripes (so adjacent keys cross stripe boundaries) — against
// two oracles: a brute-force map applied in log order, and a second
// engine fed the same log through synchronous Put/Delete. Records must
// match both exactly.
func FuzzIngestBatcher(f *testing.F) {
	f.Add([]byte{0})
	f.Add([]byte{1, 5, 10, 0, 5, 20, 1, 5, 30, 2})                         // same-key put/put/put across producers
	f.Add([]byte{2, 7, 1, 0, 7, 0, 1, 7, 2, 0})                            // put/delete/put on one key
	f.Add([]byte{0, 0, 1, 0, 1, 1, 0, 2, 1, 0, 3, 1, 0, 4, 1, 0, 5, 1, 0}) // stripe-adjacent keys
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		producers := 1 + int(data[0]%3)
		var ops []igOp
		for i := 1; i+2 < len(data) && len(ops) < 512; i += 3 {
			ops = append(ops, igOp{
				pt:  igPoint(int(data[i]) % 48),
				pay: uint64(data[i+1]) + 1,
				del: data[i+2]&1 == 1,
			})
		}
		if len(ops) == 0 {
			return
		}
		o := igCurve(t)
		eng, err := engine.Open(t.TempDir(), o, igOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer eng.Close()
		p, err := New(o, fuzzTarget{e: eng, n: 3}, Config{capacity: 8, maxBatch: 5})
		if err != nil {
			t.Fatal(err)
		}

		// Producers partitioned by key: per-key order is preserved, so the
		// final state must equal the log applied in order.
		ctx := context.Background()
		var wg sync.WaitGroup
		for w := 0; w < producers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for _, op := range ops {
					if int(o.Index(op.pt)%uint64(producers)) != w {
						continue
					}
					var err error
					if op.del {
						err = p.Delete(ctx, op.pt)
					} else {
						err = p.Put(ctx, op.pt, op.pay)
					}
					if err != nil {
						t.Errorf("producer %d: %v", w, err)
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
			t.Fatalf("close: %v", err)
		}

		// Oracle 1: brute-force map in log order.
		want := icFinal(o, ops)
		got := make(map[uint64]uint64)
		recs, _, err := eng.Query(o.Universe().Rect())
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range recs {
			got[o.Index(r.Point)] = r.Payload
		}
		if len(got) != len(want) {
			t.Fatalf("pipeline state has %d keys, oracle %d", len(got), len(want))
		}
		for k, v := range want {
			if got[k] != v {
				t.Fatalf("key %d: pipeline %d, oracle %d", k, got[k], v)
			}
		}

		// Oracle 2: the same log through the synchronous path — query
		// results must be identical record for record.
		ref, err := engine.Open(t.TempDir(), o, igOpts())
		if err != nil {
			t.Fatal(err)
		}
		defer ref.Close()
		igApplySerial(t, ref, ops)
		refRecs, _, err := ref.Query(o.Universe().Rect())
		if err != nil {
			t.Fatal(err)
		}
		if len(refRecs) != len(recs) {
			t.Fatalf("pipeline %d records, serial %d", len(recs), len(refRecs))
		}
		for i := range refRecs {
			if !refRecs[i].Point.Equal(recs[i].Point) || refRecs[i].Payload != recs[i].Payload {
				t.Fatalf("record %d: pipeline %+v, serial %+v", i, recs[i], refRecs[i])
			}
		}
	})
}
