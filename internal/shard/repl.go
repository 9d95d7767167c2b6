package shard

import (
	"fmt"
	"sort"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/repl"
	"github.com/onioncurve/onion/internal/telemetry"
)

// Replicated is a sharded engine whose every shard is a replication
// leader: shard i's engine tees its WAL through a commit hook into a
// repl.Group, so a synchronous write acknowledged by any shard means
// "fsynced on a quorum of that shard's replica set". Replication
// degrades shard by shard exactly like the rest of the service: a shard
// that loses quorum latches ReadOnly (visible in Health) while the other
// shards keep accepting writes.
type Replicated struct {
	*Sharded
	groups []*repl.Group
}

// OpenReplicated opens a sharded engine with per-shard replication.
// cfg(i) supplies shard i's replication config (peer ids, transport,
// quorum, retry shape). Each shard engine gets a commit hook, so the
// engine forces SyncWrites on: a quorum ack is only meaningful on top of
// a durable local append. Reopening a directory that already led an
// epoch requires a higher cfg(i).Epoch, the same fencing rule
// repl.LeadEngine enforces; the reopened shards' followers are re-seeded
// by snapshot at open, since the reopened replication index namespace
// restarts at zero and a follower's old-epoch log cannot attest to
// anything in it.
func OpenReplicated(dir string, c curve.Curve, opts Options, cfg func(shard int) repl.Config) (*Replicated, error) {
	opts = opts.withDefaults()
	hooks := make([]*repl.Hook, opts.Shards)
	for i := range hooks {
		hooks[i] = repl.NewHook()
	}
	opts.commitHook = func(i int) engine.CommitHook { return hooks[i] }
	s, err := Open(dir, c, opts)
	if err != nil {
		return nil, err
	}
	r := &Replicated{Sharded: s}
	for i := range hooks {
		g, err := repl.LeadEngine(s.engines[i], shardDir(dir, i), hooks[i], cfg(i))
		if err != nil {
			for _, open := range r.groups {
				open.Close() //nolint:errcheck
			}
			s.Close() //nolint:errcheck
			return nil, fmt.Errorf("shard %d: %w", i, err)
		}
		r.groups = append(r.groups, g)
	}
	return r, nil
}

// Group returns shard i's replication group (failover, recovery and
// telemetry live there).
func (r *Replicated) Group(i int) *repl.Group { return r.groups[i] }

// Heartbeat synchronously drives one catch-up round on every shard's
// replica set — a convergence barrier for tests and orderly shutdown.
func (r *Replicated) Heartbeat() {
	for _, g := range r.groups {
		g.Heartbeat()
	}
}

// Lag reports follower lag in entries (batches) across every shard, keyed
// "shard/peer".
func (r *Replicated) Lag() map[string]uint64 {
	out := make(map[string]uint64)
	for i, g := range r.groups {
		for peer, lag := range g.Lag() {
			out[fmt.Sprintf("%d/%s", i, peer)] = lag
		}
	}
	return out
}

// TryRecover attempts quorum recovery on every degraded shard and
// returns the first error (every shard is attempted regardless).
func (r *Replicated) TryRecover() error {
	var firstErr error
	for i, g := range r.groups {
		if _, err := g.TryRecover(); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("shard %d: %w", i, err)
		}
	}
	return firstErr
}

// TelemetrySnapshot extends the sharded roll-up with the per-shard
// replication registries: repl_* series aggregate across shards plus
// shard-labeled copies, following the same convention as the engine
// series. The repl counters live on the groups' own registries — never
// on the engines' — so the merge cannot double-count them no matter how
// many roll-up layers stack above.
func (r *Replicated) TelemetrySnapshot() telemetry.Snapshot {
	out := r.Sharded.TelemetrySnapshot()
	snaps := make([]telemetry.Snapshot, len(r.groups))
	for i, g := range r.groups {
		snaps[i] = g.Telemetry().Snapshot()
	}
	rs := telemetry.Rollup("shard", snaps)
	out.Metrics = append(out.Metrics, rs.Metrics...)
	sort.Slice(out.Metrics, func(a, b int) bool { return out.Metrics[a].Name < out.Metrics[b].Name })
	return out
}

// Close stops every shard's replication group, then closes the sharded
// engine. The groups do not own the engines (LeadEngine), so engine
// shutdown stays with Sharded.Close.
func (r *Replicated) Close() error {
	var firstErr error
	for _, g := range r.groups {
		if err := g.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if err := r.Sharded.Close(); err != nil && firstErr == nil {
		firstErr = err
	}
	return firstErr
}
