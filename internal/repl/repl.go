// Package repl replicates an engine's write-ahead log to a set of
// followers with quorum acknowledgment — the durability half of the
// distributed serving tier.
//
// The leader is an ordinary engine whose CommitHook tees every write
// batch — the payload of its WAL frame — into an in-memory replication
// log as one entry, and gates the batch on quorum: the leader's single
// fsync and a single round-trip to the followers cover the whole batch,
// so an acknowledged synchronous write means "fsynced on a majority".
// Followers persist the shipped entries in their own CRC-framed
// replication log (fsynced before acknowledging) and apply the
// quorum-committed prefix to their engine through the same batch codec
// WAL replay uses, so a follower's engine converges bit-identically to
// the leader's. A follower's engine
// deletes the WALs it retires instead of archiving them — an entry ends
// up stored once, in a segment — so point-in-time restore is served from
// the leader.
//
// Entries carry explicit (index, epoch) pairs. Epochs fence leadership:
// a follower rejects traffic from a stale epoch, and promotion bumps the
// epoch so a deposed leader cannot ack. Indices may have gaps — a batch
// that failed its quorum round occupies indices the leader abandons when
// it recovers — and the follower-side consistency check (match at
// PrevIndex/PrevEpoch, truncate un-applied conflicting suffixes) repairs
// followers that received such orphans. A node whose *applied* state
// diverges — canonically an ex-leader rejoining with writes no quorum
// ever acknowledged — cannot truncate its engine, so it re-seeds: the
// leader ships a seed snapshot (engine.ExportSeed + engine.Restore to
// the seed's own boundary; the resend window carries everything past
// it), wiping the divergent history rather than resurrecting it. A seed
// does not start the leader's WAL archive: only a user snapshot does.
//
// Failover is deterministic and externally driven: the controller (a
// test, an operator, a future consensus layer) picks the reachable
// follower with the longest log — which holds every quorum-acknowledged
// entry, by the quorum intersection argument — and Promote turns it into
// a leader under a higher epoch.
//
// Losing quorum degrades, never corrupts: the commit hook retries with
// capped jittered backoff, then fails the batch with engine.ErrQuorum;
// the engine latches ReadOnly (reads keep serving) and Group.TryRecover
// re-probes the peers, drops the un-acked orphan suffix, and rotates the
// engine's log once a quorum is reachable again.
//
// Transports are pluggable. The in-process Loopback transport serves
// single-process replica sets (and every test, wrapped in the
// fault-injecting Injecting transport); an RPC transport is the planned
// other half of the distributed tier.
package repl

import (
	"errors"
	"time"

	"github.com/onioncurve/onion/internal/engine"
)

var (
	// ErrClosed reports use of a closed Group or Follower.
	ErrClosed = errors.New("repl: closed")
	// ErrFenced reports a request carrying a stale epoch: a newer leader
	// exists and the sender must stop acknowledging writes.
	ErrFenced = errors.New("repl: stale epoch (fenced)")
	// ErrUnknownPeer reports a transport send to a peer id the transport
	// has no route for.
	ErrUnknownPeer = errors.New("repl: unknown peer")
	// ErrPartitioned reports a send dropped by an injected network
	// partition.
	ErrPartitioned = errors.New("repl: peer partitioned")
)

// Entry is one replicated write batch: the leader-assigned log index,
// the epoch the entry was appended under, and the batch's engine WAL
// frame payload (engine.EncodeBatch / engine.DecodeBatch). Indices
// number batches, and an entry is never split.
type Entry struct {
	Index uint64
	Epoch uint64
	Batch []byte
}

// Config tunes a leader Group. The zero value of every optional field
// selects a default.
type Config struct {
	// ID is this node's identity, echoed in requests so followers know
	// their leader.
	ID string
	// Peers are the follower ids writes must reach: N peers form an
	// N+1-replica group, and a batch acknowledges once a majority of the
	// group — the leader included — holds it durably.
	Peers []string
	// Transport routes requests to peers. Required when Peers is
	// non-empty.
	Transport Transport
	// Epoch is the starting epoch (Promote passes the successor epoch;
	// a fresh group starts at 1).
	Epoch uint64

	// engineOpts tunes the engine Lead opens (the engine forces
	// SyncWrites on, since the commit hook is set: replication rides the
	// synchronous batch commit). Promote reopens the follower's engine
	// with the follower's own options instead. Unexported: only this
	// package's tests set it.
	engineOpts engine.Options

	// historyEntries bounds the in-memory resend window in ops, not
	// entries: the leader keeps the newest entries that hold at least
	// historyEntries ops between them, plus any older ones no quorum has
	// committed yet (uncommitted batches larger than the window hold it
	// open until their commit lands). A follower whose ack falls behind
	// the window is caught up by snapshot seed instead of resend.
	// Appending to the window is O(1) and allocates nothing; it occupies
	// 2 × historyEntries slots of 48 bytes, more only while the
	// uncommitted overflow lasts. Default 1 << 14.
	historyEntries int
	// seedRefreshEntries re-exports the catch-up seed snapshot once the
	// leader has moved this many entries past it. Default historyEntries.
	// Both are unexported: only this package's tests shrink them.
	seedRefreshEntries int

	// maxBatchEntries caps entries per Append request during catch-up
	// streaming (default 512). Nothing outside this package's window
	// model test varies it, so it is not an option.
	maxBatchEntries int

	// The quorum retry: failed rounds back off exponentially from
	// retryBase, capped at retryCap, jittered ±50%, for retryAttempts
	// rounds before the batch fails with engine.ErrQuorum (defaults 2ms,
	// 20ms, 3). Unexported: only this package's tests shrink them.
	retryBase     time.Duration
	retryCap      time.Duration
	retryAttempts int
}

// catchUpInterval is the coalescing window of the catch-up loop: how
// long the loop sits on a rung bell before serving the lagging tail, so
// that one resend run (one follower log fsync) covers every batch that
// landed in the window. Longer windows keep catch-up barrier traffic off
// the device the commit path is fsyncing; shorter windows bound the lag
// replicas' staleness tighter.
const catchUpInterval = 10 * time.Millisecond

func (c Config) withDefaults() Config {
	if c.historyEntries <= 0 {
		c.historyEntries = 1 << 14
	}
	if c.maxBatchEntries <= 0 {
		c.maxBatchEntries = 512
	}
	if c.seedRefreshEntries <= 0 {
		c.seedRefreshEntries = c.historyEntries
	}
	if c.Epoch == 0 {
		c.Epoch = 1
	}
	if c.retryBase <= 0 {
		c.retryBase = 2 * time.Millisecond
	}
	if c.retryCap <= 0 {
		c.retryCap = 20 * time.Millisecond
	}
	if c.retryAttempts <= 0 {
		c.retryAttempts = 3
	}
	return c
}

// FollowerOptions tunes a Follower.
type FollowerOptions struct {
	// Engine tunes the follower's engine. SyncWrites stays off by
	// default: the follower's durable truth is its replication log, and
	// the engine catches up on compaction and close. Archiving is forced
	// off (engine.NoArchive: retired WALs are deleted, even after a
	// snapshot of Follower.Engine()): an entry already sits in the
	// replication log until the engine holds it in a segment, and nothing
	// reads a follower's archive — a seed restores to its own boundary
	// and the leader's resend window carries the rest. Point-in-time
	// restore is therefore a leader-side capability: a snapshot of
	// Follower.Engine() restores to its own boundary and no further.
	// Promote reopens the engine with these same options, the commit hook
	// added and archiving back on, so a promoted leader archives from its
	// first user snapshot on.
	Engine engine.Options

	// maxLogEntries triggers replication-log compaction: once the log's
	// entries hold more than this many ops, the applied prefix is synced
	// into the engine and dropped. Default 1 << 14. Unexported: only this
	// package's tests shrink it.
	maxLogEntries int
}

func (o FollowerOptions) withDefaults() FollowerOptions {
	if o.maxLogEntries <= 0 {
		o.maxLogEntries = 1 << 14
	}
	return o
}
