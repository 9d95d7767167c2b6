package repl

import "github.com/onioncurve/onion/internal/telemetry"

// groupTelemetry owns the repl_* series. They live on the Group's own
// registry — not the engine's — mirroring the cache-ownership rule:
// whoever creates a shared subsystem exports its metrics exactly once,
// so shard roll-ups that merge per-engine registries never double-count
// replication counters.
type groupTelemetry struct {
	reg *telemetry.Registry

	batches    *telemetry.Counter   // quorum rounds acknowledged
	entries    *telemetry.Counter   // entries shipped inside Ok appends
	appends    *telemetry.Counter   // Append requests sent (incl. retries, heartbeats)
	seeds      *telemetry.Counter   // snapshot seeds served
	quorumLost *telemetry.Counter   // batches failed with ErrQuorum
	sendErrors *telemetry.Counter   // transport errors (drops, partitions, crashes)
	failovers  *telemetry.Counter   // promotions that produced this leader
	quorumLat  *telemetry.Histogram // µs from fsync to quorum ack, per batch
}

func newGroupTelemetry(g *Group) *groupTelemetry {
	reg := telemetry.NewRegistry()
	t := &groupTelemetry{
		reg:        reg,
		batches:    reg.Counter("repl_batches_total"),
		entries:    reg.Counter("repl_entries_shipped_total"),
		appends:    reg.Counter("repl_appends_total"),
		seeds:      reg.Counter("repl_seeds_total"),
		quorumLost: reg.Counter("repl_quorum_lost_total"),
		sendErrors: reg.Counter("repl_send_errors_total"),
		failovers:  reg.Counter("repl_failovers_total"),
		quorumLat:  reg.Histogram("repl_quorum_latency_us"),
	}
	reg.GaugeFunc("repl_epoch", func() int64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return int64(g.epoch)
	})
	reg.GaugeFunc("repl_commit_index", func() int64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return int64(g.commit)
	})
	// Above Config.historyEntries only while a batch larger than the
	// window awaits its commit.
	reg.GaugeFunc("repl_history_entries", func() int64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return int64(len(g.hist.live))
	})
	reg.GaugeFunc("repl_last_index", func() int64 {
		g.mu.Lock()
		defer g.mu.Unlock()
		return int64(g.lastEntryIndex())
	})
	reg.GaugeFunc("repl_follower_lag_entries", func() int64 {
		return int64(g.maxLag())
	})
	return t
}
