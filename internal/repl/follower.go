package repl

import (
	"errors"
	"fmt"
	"sync"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/telemetry"
	"github.com/onioncurve/onion/internal/vfs"
)

// Follower holds a replica: a durable replication log (the follower's
// ground truth — an entry is acknowledged once it is fsynced there) and
// an engine the quorum-committed prefix is applied to. The engine runs
// without SyncWrites; its durability comes from the log, which replays
// idempotently after a crash (puts and tombstones are last-writer-wins
// by key, so re-applying an already-applied entry is a no-op in effect).
//
// A Follower is driven entirely by its Handler methods; register it
// with the group's transport under its peer id.
type Follower struct {
	id   string
	dir  string
	c    curve.Curve
	opts FollowerOptions
	fsys vfs.FS // opts.Engine.FS: the log and state share the engine's filesystem

	mu      sync.Mutex
	eng     *engine.Engine
	log     *replLog
	st      nodeState
	applied uint64 // in-memory apply watermark; >= st.applied, persisted lazily
	// mustSeed latches when the durable state says this node was a
	// leader — its engine holds writes no quorum may have acknowledged,
	// and an LSM cannot truncate — or sits beside a log in the retired
	// frame layout. The only way back into the group is a full re-seed:
	// every Append is answered NeedSeed until then, and nothing is
	// persisted before it, so the latch survives a reopen. It also
	// latches, for this process only, when a seed fails after it began
	// replacing the directory: eng and log are closed then, and the next
	// seed starts over on whatever is left.
	mustSeed bool
	closed   bool
	seeds    uint64
}

// FollowerStatus is a point-in-time view for lag accounting and tests.
type FollowerStatus struct {
	ID       string
	Epoch    uint64
	Base     uint64
	Applied  uint64
	Last     uint64 // highest index held durably in the replication log
	MustSeed bool
	Seeds    uint64 // completed snapshot seeds
}

// OpenFollower opens (or creates) a replica at dir. The id is the peer
// id the leader routes to; the curve must match the leader's.
func OpenFollower(id, dir string, c curve.Curve, opts FollowerOptions) (*Follower, error) {
	opts = opts.withDefaults()
	fsys := vfs.Or(opts.Engine.FS)
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("repl: follower %s: %w", id, err)
	}
	st, ok, err := readState(fsys, dir)
	if err != nil {
		return nil, err
	}
	mustSeed := false
	if ok && (st.role == "leader" || st.version < stateVersion) {
		// An ex-leader's engine may hold a divergent, un-acknowledged
		// suffix, and a version-1 state sits beside a log this code cannot
		// read; latch until the current leader re-seeds us.
		mustSeed = true
		st = nodeState{role: "follower", epoch: st.epoch}
	}
	if !ok {
		st = nodeState{role: "follower"}
	}
	f := &Follower{
		id: id, dir: dir, c: c, opts: opts, fsys: fsys,
		st: st, applied: st.applied, mustSeed: mustSeed,
	}
	if err := f.open(); err != nil {
		return nil, err
	}
	return f, nil
}

// open opens the log and engine handles over f.dir.
func (f *Follower) open() error {
	log, err := openReplLog(f.fsys, f.dir, f.c.Universe().Dims())
	if err != nil {
		return err
	}
	eng, err := engine.Open(f.dir, f.c, f.opts.Engine)
	if err != nil {
		log.close() //nolint:errcheck
		return err
	}
	f.log, f.eng = log, eng
	return nil
}

// Engine exposes the replica's engine for reads. Treat it as read-only:
// local writes would diverge from the leader.
func (f *Follower) Engine() *engine.Engine { return f.eng }

// Status reports the replica's durable position.
func (f *Follower) Status() FollowerStatus {
	f.mu.Lock()
	defer f.mu.Unlock()
	return FollowerStatus{
		ID: f.id, Epoch: f.st.epoch, Base: f.st.base,
		Applied: f.applied, Last: f.lastIndex(), MustSeed: f.mustSeed, Seeds: f.seeds,
	}
}

// Close syncs the applied prefix into the engine and closes it.
func (f *Follower) Close() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	f.closed = true
	err := f.eng.Close()
	if f.mustSeed && errors.Is(err, engine.ErrClosed) {
		err = nil // a failed seed closed it already
	}
	// The applied watermark may lag the engine, never lead it: entries at
	// or below it are not re-applied, and compaction drops them from the
	// log. Persist it only once the engine has made them durable.
	if err == nil && f.applied > f.st.applied {
		f.st.applied = f.applied
		if serr := writeState(f.fsys, f.dir, f.st); err == nil {
			err = serr
		}
	}
	if cerr := f.log.close(); err == nil {
		err = cerr
	}
	return err
}

// HandleAppend implements the follower half of log shipping.
//
// Epoch fencing first: a request from a stale epoch is refused (the
// response's higher epoch tells the old leader it is deposed); a higher
// epoch is adopted durably before anything else. Then the consistency
// check: the follower's log after PrevIndex must be a prefix of the
// shipped run. Held entries that match shipped ones are skipped
// (duplicate delivery); at the first divergence the un-applied suffix
// is truncated and the shipped entries take its place — unless the
// divergence reaches into the applied prefix, which an LSM cannot take
// back, in which case the reply asks for a seed. Acknowledged entries
// are fsynced in the replication log before the response is built; the
// quorum-committed prefix (capped at what this follower holds) is
// folded into the engine in amortized batches, driven by the leader's
// bare watermark pushes and the log-compaction threshold rather than
// by every entry-bearing append.
func (f *Follower) HandleAppend(req AppendRequest) (AppendResponse, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return AppendResponse{}, ErrClosed
	}
	if req.Epoch < f.st.epoch {
		return AppendResponse{Epoch: f.st.epoch}, nil
	}
	if f.mustSeed {
		return AppendResponse{Epoch: req.Epoch, NeedSeed: true}, nil
	}
	if req.Epoch > f.st.epoch {
		f.st.epoch = req.Epoch
		if err := writeState(f.fsys, f.dir, f.persistable()); err != nil {
			return AppendResponse{}, err
		}
	}

	// Locate PrevIndex in our history.
	prevEpoch, held := f.epochAt(req.PrevIndex)
	if !held {
		// Behind (we never saw PrevIndex) or below our compacted horizon
		// (a stale re-delivery, or a leader whose history diverges under
		// our applied state): hint a resend from our ack, which tells
		// which.
		return AppendResponse{Epoch: f.st.epoch, Ack: f.lastIndex()}, nil
	}
	if prevEpoch != req.PrevEpoch {
		// We hold a different history at PrevIndex itself.
		if f.applied >= req.PrevIndex {
			return AppendResponse{Epoch: f.st.epoch, NeedSeed: true}, nil
		}
		if err := f.log.truncateAfter(req.PrevIndex - 1); err != nil {
			return AppendResponse{}, err
		}
		return AppendResponse{Epoch: f.st.epoch, Ack: f.lastIndex()}, nil
	}

	// Tandem walk: our entries after PrevIndex against the shipped run.
	// Matching (index, epoch) pairs are duplicates already durable; the
	// first divergence truncates our suffix in favor of the leader's.
	pos := f.log.search(req.PrevIndex + 1)
	i := 0
	prevMatched := req.PrevIndex
	for i < len(req.Entries) && pos < len(f.log.entries) {
		h, s := f.log.entries[pos], req.Entries[i]
		if h.Index == s.Index && h.Epoch == s.Epoch {
			prevMatched = h.Index
			pos++
			i++
			continue
		}
		// Divergence: drop everything we hold past the last matched
		// point (this also removes orphans occupying indices the leader
		// abandoned, so the commit watermark can never apply them).
		if f.applied > prevMatched {
			return AppendResponse{Epoch: f.st.epoch, NeedSeed: true}, nil
		}
		if err := f.log.truncateAfter(prevMatched); err != nil {
			return AppendResponse{}, err
		}
		break
	}
	if fresh := req.Entries[i:]; len(fresh) > 0 {
		// Durable clones: the request's entries alias transport buffers.
		es := make([]Entry, len(fresh))
		for j, e := range fresh {
			es[j] = Entry{Index: e.Index, Epoch: e.Epoch, Batch: append([]byte(nil), e.Batch...)}
		}
		if err := f.log.append(es); err != nil {
			return AppendResponse{}, err
		}
	}
	last := f.lastIndex()

	// The ack means log durability; folding the committed prefix into
	// the engine is kept off the entry-bearing path, where it would put
	// a decode-and-insert pass on every quorum round trip. The leader's
	// periodic bare watermark push (and the compaction threshold) picks
	// the backlog up in one amortized batch instead, so a replica's
	// engine trails its log by at most the catch-up interval.
	if len(req.Entries) == 0 || f.log.ops > f.opts.maxLogEntries {
		if err := f.applyCommitted(min(req.Commit, last)); err != nil {
			return AppendResponse{}, err
		}
	}
	if f.log.ops > f.opts.maxLogEntries {
		if err := f.compact(); err != nil {
			return AppendResponse{}, err
		}
	}
	return AppendResponse{Epoch: f.st.epoch, Ok: true, Ack: last}, nil
}

// persistable is the durable state with the lazily-tracked applied
// watermark folded in (never ahead of what the log can replay).
func (f *Follower) persistable() nodeState {
	st := f.st
	if f.applied > st.applied {
		st.applied = f.applied
	}
	return st
}

func (f *Follower) lastIndex() uint64 {
	if li, _, ok := f.log.last(); ok {
		return li
	}
	return f.st.base
}

// epochAt resolves the epoch of index in our history: the base point,
// a held log entry, or genesis (index 0 when our history starts there).
func (f *Follower) epochAt(index uint64) (uint64, bool) {
	if index == f.st.base {
		return f.st.baseEpoch, true
	}
	if index == 0 {
		return 0, f.st.base == 0
	}
	return f.log.at(index)
}

// applyCommitted folds held entries in (applied, upTo] into the engine.
// The caller has verified every held entry <= upTo matches the leader.
func (f *Follower) applyCommitted(upTo uint64) error {
	if upTo <= f.applied {
		return nil
	}
	es := f.log.slice(f.applied, upTo)
	ops := make([]engine.BatchOp, 0, len(es)) // exact when every batch is one op
	for _, e := range es {
		var err error
		if ops, err = engine.DecodeBatch(ops, e.Batch, f.log.dims); err != nil {
			return fmt.Errorf("repl: follower %s: entry %d: %w", f.id, e.Index, err)
		}
	}
	if err := f.eng.PutBatch(ops); err != nil {
		return fmt.Errorf("repl: follower %s: apply: %w", f.id, err)
	}
	f.applied = upTo
	return nil
}

// compact makes the applied prefix durable in the engine, then drops it
// from the replication log and advances the base.
func (f *Follower) compact() error {
	if f.applied <= f.st.base {
		return nil
	}
	if err := f.eng.Sync(); err != nil {
		return fmt.Errorf("repl: follower %s: compact: %w", f.id, err)
	}
	baseEpoch, ok := f.log.at(f.applied)
	if !ok {
		baseEpoch = f.st.baseEpoch
	}
	if err := f.log.compactThrough(f.applied); err != nil {
		return err
	}
	f.st.base = f.applied
	f.st.baseEpoch = baseEpoch
	f.st.applied = f.applied
	return writeState(f.fsys, f.dir, f.st)
}

// HandleSeed wipes the replica and restores it from the leader's
// snapshot: engine.Restore copies the snapshot's segments and replays
// the source's archived WALs, so the rebuilt engine holds everything
// through req.Base (and possibly a little beyond; re-application is
// idempotent). The replication log restarts empty at base = req.Base.
//
// The wipe-and-rename is not crash-atomic; a process crash mid-seed
// leaves a fresh follower that simply seeds again. A seed that fails
// after the wipe began leaves this one latched mustSeed over closed
// handles, and the leader's next seed starts over.
func (f *Follower) HandleSeed(req SeedRequest) (SeedResponse, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return SeedResponse{}, ErrClosed
	}
	if req.Epoch < f.st.epoch {
		return SeedResponse{Epoch: f.st.epoch}, nil
	}
	// Everything the handles hold is about to be discarded, so neither
	// how their close goes nor that a failed seed closed them already
	// matters.
	f.eng.Close() //nolint:errcheck
	f.log.close() //nolint:errcheck
	restored := f.dir + ".seed-restore"
	vfs.RemoveAll(f.fsys, restored) //nolint:errcheck // debris from an interrupted seed; Restore refuses a target that is left
	if _, err := engine.Restore(req.Snapshot, restored, -1, f.c, f.opts.Engine); err != nil {
		// The directory is as the handles left it: carry on from it.
		if f.open() != nil {
			f.mustSeed = true
		}
		return SeedResponse{}, fmt.Errorf("repl: follower %s: seed restore: %w", f.id, err)
	}
	st := nodeState{
		role: "follower", epoch: req.Epoch,
		base: req.Base, baseEpoch: req.BaseEpoch, applied: req.Base,
	}
	if err := f.install(restored, st); err != nil {
		f.mustSeed = true
		f.st = nodeState{role: "follower", epoch: f.st.epoch}
		f.applied = 0
		return SeedResponse{}, fmt.Errorf("repl: follower %s: seed: %w", f.id, err)
	}
	f.st, f.applied = st, st.applied
	f.mustSeed = false
	f.seeds++
	f.eng.Events().Emit(telemetry.Event{
		Kind: telemetry.EvRepl, Phase: telemetry.PhasePoint, Shard: -1,
		Detail: fmt.Sprintf("seeded from %s through index %d epoch %d", req.LeaderID, req.Base, req.Epoch),
	})
	return SeedResponse{Epoch: f.st.epoch, Ok: true, Ack: req.Base}, nil
}

// install replaces the replica's directory with the restored one,
// publishes st in it and reopens the handles there.
func (f *Follower) install(restored string, st nodeState) error {
	if err := vfs.RemoveAll(f.fsys, f.dir); err != nil {
		return err
	}
	if err := f.fsys.Rename(restored, f.dir); err != nil {
		return err
	}
	if err := writeState(f.fsys, f.dir, st); err != nil {
		return err
	}
	return f.open()
}
