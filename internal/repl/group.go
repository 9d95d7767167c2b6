package repl

import (
	"fmt"
	"math/rand/v2"
	"runtime"
	"sort"
	"sync"
	"time"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/telemetry"
	"github.com/onioncurve/onion/internal/vfs"
)

// Hook is the engine.CommitHook a leader engine is opened with. It is
// created unbound (Append buffers, Commit acknowledges immediately —
// single-node behavior) so the engine can be opened before the Group
// exists; LeadEngine binds it. Bind before serving writes: buffered
// appends are replayed into the group at bind time, but commits that
// already returned were not quorum-checked.
type Hook struct {
	mu      sync.Mutex
	g       *Group
	dims    int
	pending []histEntry
}

// NewHook returns an unbound commit hook for dims-dimensional points.
func NewHook(dims int) *Hook {
	return &Hook{dims: dims}
}

// Append implements engine.CommitHook. It runs under the engine's WAL
// mutex, between the batch's flush and its fsync: it copies the batch
// into a new entry and fires it at the followers while the leader's own
// fsync is in flight, so the two log barriers overlap. Fire-and-forget
// — Commit below collects (or redoes) the acks.
func (h *Hook) Append(_ uint64, batch []byte) {
	b := histEntry{e: Entry{Batch: append([]byte(nil), batch...)}, ops: engine.BatchLen(batch, h.dims)}
	h.mu.Lock()
	g := h.g
	if g == nil {
		h.pending = append(h.pending, b)
		h.mu.Unlock()
		return
	}
	h.mu.Unlock()
	g.preShip(g.appendBatch(b))
}

// Commit implements engine.CommitHook: it blocks the engine's batch
// commit until the batch's entry — the one Append just made — is durable
// on a quorum.
func (h *Hook) Commit(uint64) error {
	h.mu.Lock()
	g := h.g
	h.mu.Unlock()
	if g == nil {
		return nil
	}
	return g.commitLast()
}

func (h *Hook) bind(g *Group) {
	h.mu.Lock()
	pending := h.pending
	h.pending = nil
	h.g = g
	h.mu.Unlock()
	for _, b := range pending {
		g.appendBatch(b)
	}
}

type epochMark struct {
	from  uint64
	epoch uint64
}

// peerState tracks one follower. The send mutex serializes requests to
// the peer (so entries arrive in order per connection); the scalar
// fields are guarded by the Group mutex.
type peerState struct {
	send sync.Mutex
	id   string

	ack        uint64 // highest index durable on the peer, as far as we know
	sentCommit uint64 // highest commit watermark delivered to the peer
	needSeed   bool
}

// Group is a leader: an engine plus the replication state machine that
// ships its WAL to the configured peers and gates acknowledgment on
// quorum. Create one with Lead (fresh engine), LeadEngine (an engine
// you opened with a NewHook) or Promote (failover).
type Group struct {
	cfg        Config
	eng        *engine.Engine
	dir        string
	hook       *Hook
	ownsEngine bool
	tel        *groupTelemetry

	mu        sync.Mutex
	epoch     uint64
	nextIndex uint64 // last assigned index; gaps are legal and permanent
	commit    uint64 // highest quorum-committed index
	hist      window
	histBase  uint64 // highest index trimmed off the front of hist
	marks     []epochMark
	peers     []*peerState
	fencedBy  uint64 // epoch of the leader that deposed us; 0 while leading
	closed    bool

	seedMu    sync.Mutex
	seedDir   string
	seedBase  uint64
	seedEpoch uint64

	bell chan struct{}
	done chan struct{}
	wg   sync.WaitGroup
}

// Lead opens a fresh leader engine at dir and starts replicating to
// cfg.Peers. The directory may hold an existing engine — its
// pre-existing dataset never flows through the commit hook, so every
// peer is seeded with a snapshot before the group serves writes — but
// not one that was already a replication leader: a deposed or crashed
// leader may hold writes no quorum acknowledged, and rejoins as a
// follower (OpenFollower re-seeds it) instead of resuming.
func Lead(dir string, c curve.Curve, cfg Config) (*Group, error) {
	cfg = cfg.withDefaults()
	st, ok, err := readState(vfs.Or(cfg.Engine.FS), dir)
	if err != nil {
		return nil, err
	}
	if ok {
		return nil, fmt.Errorf("repl: %s was a replication %s (epoch %d); rejoin as a follower and promote instead", dir, st.role, st.epoch)
	}
	hook := NewHook(c.Universe().Dims())
	opts := cfg.Engine
	opts.CommitHook = hook
	eng, err := engine.Open(dir, c, opts)
	if err != nil {
		return nil, err
	}
	g, err := newGroup(eng, dir, hook, cfg, groupInit{
		epoch: cfg.Epoch, hist: newWindow(cfg.historyEntries), seedPeers: engineNonEmpty(eng),
	})
	if err != nil {
		eng.Close() //nolint:errcheck
		return nil, err
	}
	g.ownsEngine = true
	return g, nil
}

// LeadEngine binds an already-open engine to a new Group. The engine
// must have been opened with hook as its Options.CommitHook. The caller
// keeps ownership of the engine (Close does not close it).
//
// The engine may hold pre-existing data — including the reopen path,
// where an ex-leader directory is re-led under a higher cfg.Epoch. In
// both cases the replication index namespace starts at zero and the
// engine's existing dataset never flows through the commit hook, so
// every peer is flagged for a snapshot seed and seeded (synchronously,
// for the peers that are reachable) before LeadEngine returns: a
// follower holding old-epoch indices must be wiped and re-based, never
// trusted to already cover the restarted namespace.
func LeadEngine(eng *engine.Engine, dir string, hook *Hook, cfg Config) (*Group, error) {
	cfg = cfg.withDefaults()
	st, ok, err := readState(eng.FS(), dir)
	if err != nil {
		return nil, err
	}
	if ok && st.role == "leader" && st.epoch >= cfg.Epoch {
		return nil, fmt.Errorf("repl: %s already led epoch %d; rejoin as a follower and promote instead", dir, st.epoch)
	}
	return newGroup(eng, dir, hook, cfg, groupInit{
		epoch: cfg.Epoch, hist: newWindow(cfg.historyEntries), seedPeers: ok || engineNonEmpty(eng),
	})
}

// engineNonEmpty reports whether the engine holds data (or has assigned
// sequence numbers) at group-creation time. Such data predates the
// commit hook and can only reach followers by snapshot seed.
func engineNonEmpty(e *engine.Engine) bool {
	st := e.Stats()
	return st.MemEntries > 0 || st.ImmMemtables > 0 || st.Segments > 0 || st.LastSeq > 0
}

// groupInit seeds the replication state (Promote preloads history).
type groupInit struct {
	epoch     uint64
	nextIndex uint64
	commit    uint64
	hist      window
	histBase  uint64
	marks     []epochMark
	failover  bool
	// seedPeers flags every peer for a snapshot seed at creation: set
	// when the engine holds data that never passed through the commit
	// hook (a pre-existing dataset, or an ex-leader reopen restarting
	// the index namespace), which resend can never deliver. Promote
	// leaves it unset — its preloaded history lets survivors resync by
	// resend.
	seedPeers bool
}

// quorum is how many replicas, the leader included, must hold a batch
// durably before it acknowledges: the majority of the group.
func (g *Group) quorum() int { return (1+len(g.cfg.Peers))/2 + 1 }

func newGroup(eng *engine.Engine, dir string, hook *Hook, cfg Config, init groupInit) (*Group, error) {
	if len(cfg.Peers) > 0 && cfg.Transport == nil {
		return nil, fmt.Errorf("repl: %d peers but no transport", len(cfg.Peers))
	}
	if err := writeState(eng.FS(), dir, nodeState{role: "leader", epoch: init.epoch}); err != nil {
		return nil, err
	}
	g := &Group{
		cfg: cfg, eng: eng, dir: dir, hook: hook,
		epoch: init.epoch, nextIndex: init.nextIndex, commit: init.commit,
		hist: init.hist, histBase: init.histBase, marks: init.marks,
		bell: make(chan struct{}, 1),
		done: make(chan struct{}),
	}
	for _, id := range cfg.Peers {
		// A promoted leader does not know where its peers are; their
		// first response (or NeedSeed) resynchronizes them. Starting
		// from the history base forces a resend-or-seed conversation
		// rather than assuming they hold anything.
		g.peers = append(g.peers, &peerState{id: id, ack: init.histBase, needSeed: init.seedPeers})
	}
	g.tel = newGroupTelemetry(g)
	if init.failover {
		g.tel.failovers.Inc()
	}
	hook.bind(g)
	g.wg.Add(1)
	go g.catchUpLoop()
	if init.seedPeers {
		// Seed reachable peers before returning: no write is in flight
		// yet, so the snapshot export cannot block behind one, and the
		// first write after open finds real followers instead of racing
		// the seed and latching ReadOnly on a fake quorum loss. Peers
		// that are unreachable now keep their needSeed flag and are
		// seeded by the catch-up loop when they return.
		g.Heartbeat()
	}
	g.ring()
	return g, nil
}

// Engine exposes the leader engine for reads and writes.
func (g *Group) Engine() *engine.Engine { return g.eng }

// Telemetry exposes the group's own registry (repl_* series). It is
// separate from the engine's registry so roll-ups that merge engine
// registries never double-count replication counters.
func (g *Group) Telemetry() *telemetry.Registry { return g.tel.reg }

// Epoch returns the group's current epoch.
func (g *Group) Epoch() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.epoch
}

// Close stops replication. The engine is closed only if the Group
// opened it (Lead, Promote).
func (g *Group) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	g.mu.Unlock()
	close(g.done)
	g.wg.Wait()
	var err error
	if g.ownsEngine {
		err = g.eng.Close()
	}
	if g.seedDir != "" {
		vfs.RemoveAll(g.eng.FS(), g.seedDir) //nolint:errcheck // scratch: the next Lead re-exports over it
	}
	return err
}

// appendBatch records one engine write batch as the next replication
// entry, b's Index and Epoch assigned here, and returns its index. Runs
// under the engine's WAL mutex via the hook: keep it non-blocking.
func (g *Group) appendBatch(b histEntry) uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.nextIndex++
	if n := len(g.marks); n == 0 || g.marks[n-1].epoch != g.epoch {
		g.marks = append(g.marks, epochMark{from: g.nextIndex, epoch: g.epoch})
	}
	b.e.Index, b.e.Epoch = g.nextIndex, g.epoch
	g.hist.push(b)
	// Trim the oldest entries while the rest hold historyEntries ops.
	// Only the quorum-committed prefix is trimmable. An uncommitted
	// entry is the target of an in-flight (or imminent) commit round:
	// trimming it would force its followers into a snapshot seed that
	// cannot be exported while the write is still holding the WAL path,
	// so the round would exhaust its retries against healthy replicas.
	// The window may therefore exceed historyEntries transiently (a
	// batch larger than the window); it snaps back once the commit
	// watermark passes.
	drop := 0
	for held := g.hist.ops; drop < len(g.hist.live); drop++ {
		h := g.hist.live[drop]
		if h.e.Index > g.commit || held-h.ops < g.cfg.historyEntries {
			break
		}
		held -= h.ops
	}
	if drop > 0 {
		g.histBase = g.hist.live[drop-1].e.Index
		g.hist.trim(drop)
	}
	return g.nextIndex
}

// lastEntryIndex is the index of the newest live history entry — unlike
// nextIndex it never points at an abandoned (quorum-failed) index.
// Caller holds g.mu.
func (g *Group) lastEntryIndex() uint64 {
	if n := len(g.hist.live); n > 0 {
		return g.hist.live[n-1].e.Index
	}
	return g.histBase
}

// epochOf resolves the epoch an index was appended under: 0 for the
// genesis index, else the epoch of the covering mark. Caller holds g.mu.
func (g *Group) epochOf(index uint64) uint64 {
	if index == 0 {
		return 0
	}
	var e uint64
	for _, m := range g.marks {
		if m.from > index {
			break
		}
		e = m.epoch
	}
	return e
}

// commitLast is the hook's Commit: the newest entry — the engine's batch
// just fsynced, which the engine appended right before — must be
// quorum-durable before it returns.
func (g *Group) commitLast() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return fmt.Errorf("%w: %w", engine.ErrQuorum, ErrClosed)
	}
	if g.fencedBy != 0 {
		fenced := g.fencedBy
		g.mu.Unlock()
		return fmt.Errorf("%w: %w by epoch %d", engine.ErrQuorum, ErrFenced, fenced)
	}
	target := g.nextIndex
	if target <= g.commit {
		g.mu.Unlock()
		return nil // already quorum-committed
	}
	quorum, peers := g.quorum(), g.peers
	g.mu.Unlock()
	return g.commitTo(target, quorum, peers)
}

// preShip starts streaming every entry up to index target to the
// preferred peers without waiting for the outcome. It runs between the
// engine's flush and fsync of a batch: by the time the local barrier
// lands and commitLast asks for the quorum, the followers' fsyncs have
// (mostly) already happened, so the commit round finds the acks in
// place instead of chaining a full replica round-trip after the local
// one. Re-shipping is idempotent — the per-peer send lock serializes
// the racers and shipLocked returns without a transport call once the
// ack covers the target.
func (g *Group) preShip(target uint64) {
	g.mu.Lock()
	if g.closed || g.fencedBy != 0 || target <= g.commit {
		g.mu.Unlock()
		return
	}
	quorum, peers := g.quorum(), g.peers
	g.mu.Unlock()
	for _, p := range preferredRound(quorum, peers) {
		go func(p *peerState) {
			p.send.Lock()
			g.shipLocked(p, target)
			p.send.Unlock()
		}(p)
	}
	// Yield so the shippers reach their followers' log barriers before
	// the caller (the engine's writer) enters its own. When the
	// replicas share a filesystem, the journal then commits both log
	// writes in one transaction and the second fsync rides the first's
	// commit; spawned after the leader's fsync is already in flight, the
	// follower's write misses the transaction and pays a full extra
	// journal commit in series.
	runtime.Gosched()
}

// preferredRound picks the quorum-1 followers a batch is shipped to on
// the fast path. Only that many follower fsyncs are needed per commit;
// shipping to everyone would put every replica's log barrier on the
// shared device for every batch, which is exactly the contention that
// makes colocated replication slow. The pick is the stable head of the
// peer list: a fixed fast set keeps the catch-up goroutine (which
// serves the lagging tail in coalesced multi-batch runs, one fsync
// each) off the fast peers' send locks, where rotating the pick would
// make every batch race its own commit against a resend. A follower's
// log is always a prefix of the leader's, so QuorumWatermark stays
// exact under the skew: an acked entry is durable on quorum-1
// followers, hence at or below the (quorum-1)-th longest follower log.
func preferredRound(quorum int, peers []*peerState) []*peerState {
	need := quorum - 1
	if need <= 0 {
		return nil
	}
	if need >= len(peers) {
		return peers
	}
	return peers[:need]
}

// commitTo drives quorum rounds (with capped jittered backoff between
// attempts) until target is durable on quorum replicas or the attempts
// run out, in which case the batch fails with engine.ErrQuorum and the
// engine latches ReadOnly.
func (g *Group) commitTo(target uint64, quorum int, peers []*peerState) error {
	start := time.Now()
	delay := g.cfg.retryBase
	for attempt := 1; ; attempt++ {
		// First attempt: collect acks from the preferred round preShip
		// already fired at — usually the shippers find the acks in place
		// and return without a transport call. Any failure escalates the
		// retries to the full peer set, so a dead preferred replica only
		// costs one backoff before the others take over. Shippers run
		// concurrently and the loop returns as soon as a quorum is
		// durable; stragglers drain into the buffered channel on their
		// own (the per-peer send lock serializes them against the next
		// batch's shipper). Waiting for the slowest replica would put
		// its entire fsync on the commit path for no durability gain —
		// quorum means quorum.
		round := peers
		if attempt == 1 {
			round = preferredRound(quorum, peers)
		}
		acks := 1 // self: the engine fsynced before calling the hook
		results := make(chan bool, len(round))
		for _, p := range round {
			go func(p *peerState) {
				p.send.Lock()
				ok := g.shipLocked(p, target)
				p.send.Unlock()
				results <- ok
			}(p)
		}
		for replies := 0; replies < len(round) && acks < quorum; replies++ {
			if <-results {
				acks++
			}
		}
		g.mu.Lock()
		fenced := g.fencedBy
		g.mu.Unlock()
		if fenced != 0 {
			return fmt.Errorf("%w: %w by epoch %d", engine.ErrQuorum, ErrFenced, fenced)
		}
		if acks >= quorum {
			g.mu.Lock()
			if target > g.commit {
				g.commit = target
			}
			g.mu.Unlock()
			g.tel.batches.Inc()
			g.tel.quorumLat.Record(uint64(time.Since(start).Microseconds()))
			g.ring() // push the new commit watermark out of band
			return nil
		}
		if attempt >= g.cfg.retryAttempts {
			g.tel.quorumLost.Inc()
			g.eng.Events().Emit(telemetry.Event{
				Kind: telemetry.EvRepl, Phase: telemetry.PhasePoint, Shard: -1,
				Err:    "quorum lost",
				Detail: fmt.Sprintf("index %d: %d/%d replicas after %d attempts", target, acks, 1+len(peers), attempt),
			})
			return fmt.Errorf("%w: index %d reached %d/%d replicas after %d attempts",
				engine.ErrQuorum, target, acks, 1+len(peers), attempt)
		}
		// Jittered backoff in [delay/2, delay*3/2), doubling up to the cap.
		time.Sleep(delay/2 + time.Duration(rand.Int64N(int64(delay))))
		if delay *= 2; delay > g.cfg.retryCap {
			delay = g.cfg.retryCap
		}
	}
}

// shipLocked (peer send lock held) streams entries to p until its ack
// reaches target. Returns whether it did. Follower hints reposition the
// stream; a peer that falls behind the history window is flagged for
// seeding and handled by the catch-up goroutine — never on the commit
// path, where the snapshot's flush could deadlock against the engine.
func (g *Group) shipLocked(p *peerState, target uint64) bool {
	lastAck := ^uint64(0)
	for round := 0; round < 64; round++ {
		g.mu.Lock()
		if g.closed || g.fencedBy != 0 || p.needSeed {
			g.mu.Unlock()
			return false
		}
		ack := p.ack
		if ack >= target {
			g.mu.Unlock()
			return true
		}
		if ack < g.histBase {
			p.needSeed = true
			g.mu.Unlock()
			g.ring()
			return false
		}
		i := g.hist.search(ack + 1)
		j := g.hist.search(target + 1)
		if j > i+g.cfg.maxBatchEntries {
			j = i + g.cfg.maxBatchEntries
		}
		if i == j {
			// Nothing real to ship below target. Targets are always live
			// entry indices, so this is unreachable; never advance the
			// ack over a gap — a trimmed orphan index must not become a
			// Prev-match point.
			g.mu.Unlock()
			return false
		}
		entries := make([]Entry, j-i)
		for k := i; k < j; k++ {
			entries[k-i] = g.hist.live[k].e
		}
		upTo := entries[len(entries)-1].Index
		req := AppendRequest{
			Epoch:     g.epoch,
			LeaderID:  g.cfg.ID,
			PrevIndex: ack,
			PrevEpoch: g.epochOf(ack),
			Entries:   entries,
			Commit:    g.commit,
		}
		g.mu.Unlock()

		resp, err := g.cfg.Transport.Append(p.id, req)
		g.tel.appends.Inc()
		if err != nil {
			g.tel.sendErrors.Inc()
			return false
		}
		g.mu.Lock()
		if resp.Epoch > req.Epoch {
			g.deposeLocked(resp.Epoch)
			g.mu.Unlock()
			return false
		}
		if resp.NeedSeed {
			p.needSeed = true
			g.mu.Unlock()
			g.ring()
			return false
		}
		if resp.Ok {
			if upTo > p.ack {
				p.ack = upTo
			}
			if req.Commit > p.sentCommit {
				p.sentCommit = req.Commit
			}
			g.tel.entries.Add(uint64(len(entries)))
			g.mu.Unlock()
			continue
		}
		// Resend hint. Never adopt an ack beyond our own history: a
		// follower reporting indices this leader never assigned holds a
		// divergent namespace (canonically old-epoch entries from before
		// a leader reopen restarted the index space) that resend cannot
		// repair — adopting it would satisfy ack >= target and fake a
		// quorum ack for entries the follower does not hold. Re-seed.
		if resp.Ack > g.lastEntryIndex() {
			p.needSeed = true
			g.mu.Unlock()
			g.ring()
			return false
		}
		// No forward progress twice in a row means the conversation is
		// stuck (e.g. repeated truncation); give up and let the
		// retry/backoff or catch-up loop take over.
		p.ack = resp.Ack
		g.mu.Unlock()
		if resp.Ack == lastAck {
			return false
		}
		lastAck = resp.Ack
	}
	return false
}

// deposeLocked (g.mu held) latches the fence: a higher epoch exists, so
// this leader must never acknowledge again. Its durable role stays
// "leader", which is exactly what forces a full re-seed when the node
// rejoins the group as a follower.
func (g *Group) deposeLocked(epoch uint64) {
	if g.fencedBy == 0 || epoch > g.fencedBy {
		g.fencedBy = epoch
	}
}

func (g *Group) ring() {
	select {
	case g.bell <- struct{}{}:
	default:
	}
}

// catchUpLoop serves the slow paths off the commit path: seeding peers
// that fell behind the history window (or diverged), re-streaming
// laggards, and pushing the commit watermark (heartbeats) so followers
// apply the final batch without waiting for the next write.
func (g *Group) catchUpLoop() {
	defer g.wg.Done()
	for {
		select {
		case <-g.done:
			return
		case <-g.bell:
		}
		// Debounce: under continuous load the bell rings once per batch,
		// and serving a lagging peer immediately would fsync its log per
		// batch — the very barrier traffic preferredRound keeps off the
		// device. The coalescing window lets a run of batches pile up so
		// one resend (one fsync) covers them all; at idle it only delays
		// the final watermark push by the same hair.
		timer := time.NewTimer(catchUpInterval)
		select {
		case <-g.done:
			timer.Stop()
			return
		case <-timer.C:
		}
		select {
		case <-g.bell:
		default:
		}
		// Fast-set peers are the commit path's job: preShip streams every
		// batch to them and failed rounds escalate the retries to the full
		// peer set, so a routine resend from here would only fight the
		// in-flight commit for their send locks (and put an extra log
		// barrier on the device). They still get seeded and still receive
		// the watermark push; only the resend leg is skipped.
		fast := preferredRound(g.quorum(), g.peers)
		for _, p := range g.peers {
			select {
			case <-g.done:
				return
			default:
			}
			resend := true
			for _, fp := range fast {
				if fp == p {
					resend = false
					break
				}
			}
			g.servePeer(p, resend)
		}
	}
}

func (g *Group) servePeer(p *peerState, resend bool) {
	g.servePeerOnce(p, resend)
	// A pass can discover mid-flight that the peer needs a seed — the
	// resend finds its ack below the history window, or a response asks
	// for one — after the entry check that would have exported the
	// snapshot. Run one more pass so a synchronous drain (Heartbeat)
	// converges the peer instead of leaving the seed to the next bell;
	// if the retry fails too, the flag stays and the catch-up loop gets
	// another shot later.
	g.mu.Lock()
	again := !g.closed && g.fencedBy == 0 && p.needSeed
	g.mu.Unlock()
	if again {
		g.servePeerOnce(p, resend)
	}
}

func (g *Group) servePeerOnce(p *peerState, resend bool) {
	g.mu.Lock()
	stopped := g.closed || g.fencedBy != 0
	needSeed := p.needSeed
	g.mu.Unlock()
	if stopped {
		return
	}
	// Export the seed snapshot BEFORE taking the peer's send lock: the
	// snapshot's flush waits for in-flight writes, and an in-flight
	// write's quorum round may be waiting on that very send lock.
	var seedDir string
	var seedBase, seedEpoch uint64
	if needSeed {
		var err error
		seedDir, seedBase, seedEpoch, err = g.ensureSeed()
		if err != nil {
			g.tel.sendErrors.Inc()
			return
		}
	}
	p.send.Lock()
	defer p.send.Unlock()
	g.mu.Lock()
	if g.closed || g.fencedBy != 0 {
		g.mu.Unlock()
		return
	}
	needSeed, ack, sent := p.needSeed, p.ack, p.sentCommit
	last, commit, epoch := g.lastEntryIndex(), g.commit, g.epoch
	g.mu.Unlock()
	if needSeed {
		if seedDir == "" {
			g.ring() // flagged after the snapshot check; come back around
			return
		}
		if !g.seedPeerLocked(p, seedDir, seedBase, seedEpoch) {
			return
		}
		g.mu.Lock()
		ack, sent = p.ack, p.sentCommit
		g.mu.Unlock()
	}
	shipped := false
	if resend && ack < last {
		g.shipLocked(p, last)
		shipped = true
		g.mu.Lock()
		sent = p.sentCommit
		g.mu.Unlock()
	}
	// The bare watermark push doubles as the apply trigger: followers
	// defer folding committed entries into their engine until a push
	// arrives, so one is owed not just when the watermark is stale but
	// also right after a resend delivered entries alongside a current
	// watermark.
	if sent < commit || shipped {
		// Heartbeat: empty append carrying the watermark.
		g.mu.Lock()
		ack = p.ack
		prevEpoch := g.epochOf(ack)
		g.mu.Unlock()
		resp, err := g.cfg.Transport.Append(p.id, AppendRequest{
			Epoch: epoch, LeaderID: g.cfg.ID,
			PrevIndex: ack, PrevEpoch: prevEpoch, Commit: commit,
		})
		if err != nil {
			g.tel.sendErrors.Inc()
			return
		}
		g.mu.Lock()
		switch {
		case resp.Epoch > epoch:
			g.deposeLocked(resp.Epoch)
		case resp.NeedSeed:
			p.needSeed = true
			g.ring()
		case resp.Ok && commit > p.sentCommit:
			p.sentCommit = commit
		}
		g.mu.Unlock()
	}
}

// seedPeerLocked (peer send lock held) ships the already-exported seed
// snapshot to the peer.
func (g *Group) seedPeerLocked(p *peerState, dir string, base, baseEpoch uint64) bool {
	g.mu.Lock()
	epoch, commit := g.epoch, g.commit
	g.mu.Unlock()
	resp, err := g.cfg.Transport.Seed(p.id, SeedRequest{
		Epoch: epoch, LeaderID: g.cfg.ID,
		Snapshot: dir, Base: base, BaseEpoch: baseEpoch, Commit: commit,
	})
	if err != nil {
		g.tel.sendErrors.Inc()
		return false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if resp.Epoch > epoch {
		g.deposeLocked(resp.Epoch)
		return false
	}
	if !resp.Ok {
		return false
	}
	p.needSeed = false
	if resp.Ack > p.ack {
		p.ack = resp.Ack
	}
	if commit > p.sentCommit {
		p.sentCommit = commit
	}
	g.tel.seeds.Inc()
	g.eng.Events().Emit(telemetry.Event{
		Kind: telemetry.EvRepl, Phase: telemetry.PhasePoint, Shard: -1,
		Detail: fmt.Sprintf("seeded %s through index %d", p.id, base),
	})
	return true
}

// ensureSeed exports (or reuses) the catch-up snapshot. The base index
// is captured before the snapshot, so the snapshot holds at least every
// entry up to it — entries past it re-apply idempotently on the
// follower. A seed is an exported snapshot, so the leader's engine
// archives every WAL it retires from then on and nothing prunes the
// archive: however stale, a cached seed restores past its base. Only a
// follower's engine deletes retired WALs (FollowerOptions), and Promote
// reopens it with Config.Engine, so every leader engine archives.
func (g *Group) ensureSeed() (string, uint64, uint64, error) {
	g.seedMu.Lock()
	defer g.seedMu.Unlock()
	g.mu.Lock()
	base := g.nextIndex
	epoch := g.epoch
	last := g.nextIndex
	histBase := g.histBase
	g.mu.Unlock()
	// A cached seed is reusable while it still bridges to the resend
	// window (a follower seeded below histBase would just need another
	// seed) and the leader has not moved seedRefreshEntries past it.
	if g.seedDir != "" && g.seedEpoch == epoch &&
		g.seedBase >= histBase &&
		last-g.seedBase < uint64(g.cfg.seedRefreshEntries) {
		g.mu.Lock()
		be := g.epochOf(g.seedBase)
		g.mu.Unlock()
		return g.seedDir, g.seedBase, be, nil
	}
	dir := g.dir + "-seed"
	if err := vfs.RemoveAll(g.eng.FS(), dir); err != nil {
		return "", 0, 0, err
	}
	if _, err := g.eng.Snapshot(dir); err != nil {
		return "", 0, 0, err
	}
	g.seedDir, g.seedBase, g.seedEpoch = dir, base, epoch
	g.mu.Lock()
	be := g.epochOf(base)
	g.mu.Unlock()
	return dir, base, be, nil
}

// Heartbeat pushes the current commit watermark to every peer and waits
// for the round to finish; after it, followers that answered have
// applied everything committed. Tests and orderly shutdowns use it to
// drain follower lag without writing.
func (g *Group) Heartbeat() {
	g.mu.Lock()
	peers := g.peers
	g.mu.Unlock()
	var wg sync.WaitGroup
	for _, p := range peers {
		wg.Add(1)
		go func(p *peerState) {
			defer wg.Done()
			g.servePeer(p, true)
		}(p)
	}
	wg.Wait()
}

// Lag reports, per peer, how many entries (batches) the leader holds
// beyond the peer's last durable ack.
func (g *Group) Lag() map[string]uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make(map[string]uint64, len(g.peers))
	last := g.lastEntryIndex()
	for _, p := range g.peers {
		lag := uint64(0)
		if last > p.ack {
			lag = last - p.ack
		}
		out[p.id] = lag
	}
	return out
}

// maxLag is Lag's ceiling, for the lag gauge.
func (g *Group) maxLag() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	last := g.lastEntryIndex()
	var m uint64
	for _, p := range g.peers {
		if last > p.ack && last-p.ack > m {
			m = last - p.ack
		}
	}
	return m
}

// TryRecover attempts to leave degraded mode after a quorum loss. It
// probes the peers for reachability; once a quorum of replicas (self
// included) answers, it abandons the un-committed orphan suffix —
// quorum-failed batches the engine already refused, which must never
// ship — and runs the engine's own recovery (probe write, WAL rotation,
// stranded flushes). The indices the orphans occupied are never reused:
// they stay as permanent gaps, so a follower that did receive an orphan
// detects the divergence and truncates it.
func (g *Group) TryRecover() (engine.Health, error) {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return 0, ErrClosed
	}
	if g.fencedBy != 0 {
		fenced := g.fencedBy
		g.mu.Unlock()
		return 0, fmt.Errorf("%w by epoch %d: rejoin as a follower", ErrFenced, fenced)
	}
	peers := g.peers
	quorum := g.quorum()
	g.mu.Unlock()

	reachable := 1
	for _, p := range peers {
		if err := g.cfg.Transport.Probe(p.id); err == nil {
			reachable++
		}
	}
	if reachable < quorum {
		return g.engHealth(), fmt.Errorf("%w: %d/%d replicas reachable, quorum %d",
			ErrPartitioned, reachable, 1+len(peers), quorum)
	}

	g.mu.Lock()
	g.abandonOrphansLocked()
	g.mu.Unlock()

	h, err := g.eng.TryRecover()
	if err != nil {
		return h, err
	}
	g.eng.Events().Emit(telemetry.Event{
		Kind: telemetry.EvRepl, Phase: telemetry.PhasePoint, Shard: -1,
		Detail: fmt.Sprintf("quorum recovered: %d/%d replicas reachable", reachable, 1+len(peers)),
	})
	g.ring()
	return h, nil
}

// abandonOrphansLocked (g.mu held) drops the un-committed suffix of the
// history and re-bases every peer conversation at the commit watermark.
// A follower that acked an orphan must not have that orphan used as a
// Prev-match point (it would sit silently below later entries and be
// applied once the watermark passes it); resending from commit makes
// the follower's tandem walk see the divergence and truncate it.
func (g *Group) abandonOrphansLocked() {
	g.hist.truncate(g.hist.search(g.commit + 1))
	for _, p := range g.peers {
		if p.ack > g.commit {
			p.ack = g.commit
		}
		if p.sentCommit > g.commit {
			p.sentCommit = g.commit
		}
	}
}

func (g *Group) engHealth() engine.Health {
	h, _ := g.eng.Health()
	return h
}

// QuorumWatermark computes, from the last-held indices of the dead
// leader's followers, the highest index that provably reached a quorum:
// with quorum Q (leader included), a quorum-acknowledged entry is
// durable on at least Q-1 followers, so the (Q-1)-th largest last-index
// bounds the acknowledged prefix from above — and a batch the old
// leader refused with ErrQuorum reached at most Q-2 followers, so it
// always falls beyond the watermark and is truncated by Promote.
//
// lasts must cover every follower that may hold entries (an unreachable
// follower's copy cannot be counted, which can only under-estimate —
// safe for the no-resurrection guarantee, lossy for indeterminate
// in-flight batches).
func QuorumWatermark(lasts []uint64, quorum int) uint64 {
	k := quorum - 1
	if k <= 0 {
		k = 1
	}
	if len(lasts) < k {
		return 0
	}
	s := append([]uint64(nil), lasts...)
	sort.Slice(s, func(i, j int) bool { return s[i] > s[j] })
	return s[k-1]
}

// Promote turns a follower into the leader for a new epoch: the
// replication log is truncated to upTo (QuorumWatermark of the
// surviving replicas — dropping any suffix that provably never reached
// a quorum), fully applied to the engine, synced, and the node restarts
// as a leader whose in-memory history is preloaded from the log, so
// surviving followers catch up by resend rather than re-seed.
//
// The leader role is persisted before the log is applied: if the
// process dies mid-promotion the node rejoins as an ex-leader and is
// re-seeded, never serving a half-promoted state.
//
// Promote consumes the follower (its handles move into the Group); on
// error the follower is left closed.
func Promote(f *Follower, upTo uint64, cfg Config) (*Group, error) {
	cfg = cfg.withDefaults()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil, ErrClosed
	}
	if f.mustSeed {
		return nil, fmt.Errorf("repl: %s is an un-reseeded ex-leader; promote a clean follower", f.id)
	}
	if upTo < f.applied {
		return nil, fmt.Errorf("repl: promote watermark %d below applied %d", upTo, f.applied)
	}
	epoch := cfg.Epoch
	if epoch <= f.st.epoch {
		epoch = f.st.epoch + 1
	}
	f.closed = true // the follower identity ends here, whatever happens next
	fail := func(err error) (*Group, error) {
		f.eng.Close() //nolint:errcheck
		f.log.close() //nolint:errcheck
		return nil, err
	}

	if err := f.log.truncateAfter(upTo); err != nil {
		return fail(err)
	}
	// Point of no return: once the durable role says leader, a crash
	// rejoins as an ex-leader (full re-seed) instead of replaying a
	// partially promoted follower state.
	if err := writeState(f.fsys, f.dir, nodeState{role: "leader", epoch: epoch}); err != nil {
		return fail(err)
	}
	last := f.lastIndex()
	if err := f.applyCommitted(last); err != nil {
		return fail(err)
	}
	if err := f.eng.Sync(); err != nil {
		return fail(err)
	}

	// Preload the leader history from the log so surviving followers
	// resync by resend. Epoch marks reconstruct fencing for indices at
	// and below the base. The entries' Batch buffers move into the window
	// uncopied: the log is closed and deleted below, and the window never
	// writes to an entry's bytes.
	hist := newWindow(cfg.historyEntries)
	var marks []epochMark
	if f.st.base > 0 {
		marks = append(marks, epochMark{from: f.st.base, epoch: f.st.baseEpoch})
	}
	dims := f.c.Universe().Dims()
	for _, e := range f.log.entries {
		hist.push(histEntry{e: e, ops: engine.BatchLen(e.Batch, dims)})
		if n := len(marks); n == 0 || marks[n-1].epoch != e.Epoch {
			marks = append(marks, epochMark{from: e.Index, epoch: e.Epoch})
		}
	}
	histBase := f.st.base
	if err := f.log.close(); err != nil {
		f.eng.Close() //nolint:errcheck
		return nil, err
	}
	f.fsys.Remove(f.log.path) //nolint:errcheck // applied and synced; leaders keep no replication log

	// Reopen the engine as a leader engine: commit hook installed,
	// synchronous writes on.
	if err := f.eng.Close(); err != nil {
		return nil, err
	}
	hook := NewHook(dims)
	opts := cfg.Engine
	opts.CommitHook = hook
	eng, err := engine.Open(f.dir, f.c, opts)
	if err != nil {
		return nil, err
	}
	g, err := newGroup(eng, f.dir, hook, cfg, groupInit{
		epoch:     epoch,
		nextIndex: last,
		commit:    last,
		hist:      hist,
		histBase:  histBase,
		marks:     marks,
		failover:  true,
	})
	if err != nil {
		eng.Close() //nolint:errcheck
		return nil, err
	}
	g.ownsEngine = true
	g.eng.Events().Emit(telemetry.Event{
		Kind: telemetry.EvRepl, Phase: telemetry.PhasePoint, Shard: -1,
		Detail: fmt.Sprintf("promoted %s to leader at index %d epoch %d", f.id, last, epoch),
	})
	return g, nil
}
