package shard

import (
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/ingest"
)

// Curve returns the curve the service clusters and routes by — the one
// passed to Open. Ingest pipelines use it to key ops before routing.
func (s *Sharded) Curve() curve.Curve { return s.c }

// ingestTarget adapts the sharded service to the ingest batch sink: one
// stripe per shard, routed by the service's own partitioner, each batch
// applied through the owning engine's PutBatch (one WAL fsync per
// coalesced batch per shard; the stripe's submitter is the engine's only
// writer).
type ingestTarget struct{ s *Sharded }

func (t ingestTarget) Stripes() int            { return len(t.s.engines) }
func (t ingestTarget) StripeOf(key uint64) int { return t.s.part.Of(key) }

func (t ingestTarget) ApplyBatch(i int, ops []engine.BatchOp) error {
	t.s.mu.RLock()
	defer t.s.mu.RUnlock()
	if t.s.closed {
		return ErrClosed
	}
	return t.s.engines[i].PutBatch(ops)
}

// NewIngest builds and starts an async ingest pipeline over the service:
// ops enqueue into one shared MPMC ring, a striped batcher coalesces them
// per shard, and each shard's batches ride one WAL fsync of that engine
// apiece. Close the pipeline before closing the service.
func (s *Sharded) NewIngest(cfg ingest.Config) (*ingest.Pipeline, error) {
	return ingest.New(s.c, ingestTarget{s}, cfg)
}
