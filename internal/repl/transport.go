package repl

import (
	"fmt"
	"sync"

	"github.com/onioncurve/onion/internal/curve"
)

// AppendRequest ships a run of entries to a follower. PrevIndex and
// PrevEpoch identify the entry immediately preceding Entries in the
// leader's log (0, 0 at the very beginning); the follower acknowledges
// only when its log matches at that point, which is what makes an ack
// mean "my log is a prefix-plus-Entries of yours". Commit is the
// highest quorum-committed index: the follower may apply entries up to
// it. An empty Entries slice is a heartbeat carrying the commit
// watermark. Curve is the leader's curve identity, which a follower checks.
type AppendRequest struct {
	Epoch     uint64
	LeaderID  string
	Curve     curve.Identity
	PrevIndex uint64
	PrevEpoch uint64
	Entries   []Entry
	Commit    uint64
}

// AppendResponse is the follower's verdict. Ok means the entries are
// durable in the follower's replication log. Ack is the highest index
// the follower holds contiguously from its base — on Ok it advances
// past the shipped entries; on a mismatch it is a resend hint. NeedSeed
// asks the leader for a snapshot: the follower's log cannot be
// reconciled by resend (diverged below its applied watermark, or fell
// behind the leader's history window). Epoch is the follower's current
// epoch, so a deposed leader learns it has been fenced.
type AppendResponse struct {
	Epoch    uint64
	Ok       bool
	Ack      uint64
	NeedSeed bool
}

// SeedRequest offers a follower a full state transfer: an engine
// snapshot directory to restore from, covering indices up to Base
// (appended under BaseEpoch). The follower wipes its engine and
// replication log and restarts from the snapshot; entries after Base
// arrive by ordinary Append.
type SeedRequest struct {
	Epoch     uint64
	LeaderID  string
	Snapshot  string
	Base      uint64
	BaseEpoch uint64
	Commit    uint64
}

// SeedResponse reports the restore. Ack echoes the new base on success.
type SeedResponse struct {
	Epoch uint64
	Ok    bool
	Ack   uint64
}

// Handler is the follower side of the protocol.
type Handler interface {
	HandleAppend(req AppendRequest) (AppendResponse, error)
	HandleSeed(req SeedRequest) (SeedResponse, error)
}

// Transport routes leader requests to followers by peer id. Probe is a
// cheap reachability check used by quorum recovery; it must not touch
// follower state. Implementations must be safe for concurrent use.
type Transport interface {
	Append(peer string, req AppendRequest) (AppendResponse, error)
	Seed(peer string, req SeedRequest) (SeedResponse, error)
	Probe(peer string) error
}

// Loopback is an in-process transport: a registry of handlers keyed by
// peer id. It serves single-process replica sets — every engine in one
// OS process, calls delivered synchronously — and is the substrate the
// fault-injecting transport wraps in tests. An RPC transport replacing
// it is the remaining half of the distributed tier.
type Loopback struct {
	mu       sync.RWMutex
	handlers map[string]Handler
}

// NewLoopback returns an empty in-process transport.
func NewLoopback() *Loopback {
	return &Loopback{handlers: make(map[string]Handler)}
}

// Register routes requests for peer id to h. Re-registering replaces
// the previous handler (a follower restarting under the same id).
func (t *Loopback) Register(id string, h Handler) {
	t.mu.Lock()
	t.handlers[id] = h
	t.mu.Unlock()
}

// Unregister removes the route; subsequent sends fail with
// ErrUnknownPeer, which is how a crashed follower looks to the leader.
func (t *Loopback) Unregister(id string) {
	t.mu.Lock()
	delete(t.handlers, id)
	t.mu.Unlock()
}

func (t *Loopback) handler(id string) (Handler, error) {
	t.mu.RLock()
	h := t.handlers[id]
	t.mu.RUnlock()
	if h == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownPeer, id)
	}
	return h, nil
}

// Append delivers the request to the registered handler synchronously.
func (t *Loopback) Append(peer string, req AppendRequest) (AppendResponse, error) {
	h, err := t.handler(peer)
	if err != nil {
		return AppendResponse{}, err
	}
	return h.HandleAppend(req)
}

// Seed delivers the request to the registered handler synchronously.
func (t *Loopback) Seed(peer string, req SeedRequest) (SeedResponse, error) {
	h, err := t.handler(peer)
	if err != nil {
		return SeedResponse{}, err
	}
	return h.HandleSeed(req)
}

// Probe reports whether the peer is registered.
func (t *Loopback) Probe(peer string) error {
	_, err := t.handler(peer)
	return err
}
