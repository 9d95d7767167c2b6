package ingest

import (
	"github.com/onioncurve/onion/internal/telemetry"
)

// ingestTelemetry holds pre-resolved handles into the pipeline's own
// metric registry — the front-end series that exist above any one engine:
// queue pressure, batching shape, ack latency. Storage-side metrics (WAL
// bytes, ops per fsync) stay in the target engines' registries.
type ingestTelemetry struct {
	enqueued      *telemetry.Counter
	acked         *telemetry.Counter
	ackErrors     *telemetry.Counter
	rejects       *telemetry.Counter
	batches       *telemetry.Counter
	coalesced     *telemetry.Counter
	batchOps      *telemetry.Histogram
	enqueueWaitUS *telemetry.Histogram
	ackLatencyUS  *telemetry.Histogram
}

func newIngestTelemetry(reg *telemetry.Registry) *ingestTelemetry {
	return &ingestTelemetry{
		enqueued:      reg.Counter("ingest_enqueued_total"),
		acked:         reg.Counter("ingest_acked_total"),
		ackErrors:     reg.Counter("ingest_ack_errors_total"),
		rejects:       reg.Counter("ingest_backpressure_rejects_total"),
		batches:       reg.Counter("ingest_batches_total"),
		coalesced:     reg.Counter("ingest_coalesced_total"),
		batchOps:      reg.Histogram("ingest_batch_ops"),
		enqueueWaitUS: reg.Histogram("ingest_enqueue_wait_us"),
		ackLatencyUS:  reg.Histogram("ingest_ack_latency_us"),
	}
}

// Telemetry returns the pipeline's metric registry: the ingest_* series.
func (p *Pipeline) Telemetry() *telemetry.Registry { return p.reg }
