package main

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"time"

	onion "github.com/onioncurve/onion"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/telemetry"
)

const (
	shards    = 2 // fixed, not GOMAXPROCS-derived, so the store is the same on every box
	followers = 2 // per shard on ingest-quorum: r3, majority 2
)

// storeOptions is what differs between the workloads' stores.
type storeOptions struct {
	cacheBytes int64
	syncWrites bool
	replicated bool
}

// store is the program under test, opened the way one workload uses it.
type store struct {
	*onion.ShardedEngine
	replicated *onion.ReplicatedShardedEngine // nil unless replicated
	followers  []*onion.ReplFollower
}

func serviceDir(dir string) string { return filepath.Join(dir, "service") }

// preload builds the data set on disk: D through the non-durable Put path,
// then Flush, Compact and Close, leaving one compacted segment per shard.
//
// D goes in in curve-key order. In random order the preload is a
// memory-latency benchmark of the memtable: on this box it wanders by a
// fifth from one minute to the next, and setup_s with it. Sorted, it is a
// third faster and repeats within a few percent, and the store it leaves
// after Compact is the same.
func preload(dir string, c onion.Curve, d *dataset) error {
	order := curveOrder(c, d)
	s, err := onion.OpenShardedEngine(serviceDir(dir), c, onion.ShardedEngineOptions{Shards: shards})
	if err != nil {
		return err
	}
	p := geom.Point{0, 0}
	for _, i := range order {
		p[0], p[1] = d.xs[i], d.ys[i]
		if err := s.Put(p, d.pay[i]); err != nil {
			s.Close() //nolint:errcheck // the Put error is the one to report
			return err
		}
	}
	if err := s.Flush(); err != nil {
		s.Close() //nolint:errcheck
		return err
	}
	if err := s.Compact(); err != nil {
		s.Close() //nolint:errcheck
		return err
	}
	return s.Close()
}

// openStore reopens the preloaded directory with the workload's options.
// tr is nil on the untraced run, which therefore sees plain vfs.OS and the
// bare loopback transport.
func openStore(dir string, c onion.Curve, o storeOptions, tr *tracer) (*store, error) {
	opts := onion.ShardedEngineOptions{Shards: shards, CacheBytes: o.cacheBytes}
	opts.Engine.SyncWrites = o.syncWrites
	if tr != nil {
		opts.FS = tr.fs
	}
	if !o.replicated {
		s, err := onion.OpenShardedEngine(serviceDir(dir), c, opts)
		if err != nil {
			return nil, err
		}
		return &store{ShardedEngine: s}, nil
	}

	st := &store{}
	lb := onion.NewReplLoopback()
	var transport onion.ReplTransport = lb
	if tr != nil {
		tr.transport.Transport = lb
		transport = tr.transport
	}
	peers := make([][]string, shards)
	for sh := 0; sh < shards; sh++ {
		for f := 1; f <= followers; f++ {
			id := fmt.Sprintf("s%d-f%d", sh, f)
			fo, err := onion.OpenReplFollower(id, filepath.Join(dir, "replica-"+id), c,
				onion.ReplFollowerOptions{Engine: onion.EngineOptions{FS: opts.FS}})
			if err != nil {
				st.Close() //nolint:errcheck
				return nil, err
			}
			st.followers = append(st.followers, fo)
			lb.Register(id, fo)
			peers[sh] = append(peers[sh], id)
		}
	}
	r, err := onion.OpenReplicatedShardedEngine(serviceDir(dir), c, opts, func(sh int) onion.ReplConfig {
		return onion.ReplConfig{ID: fmt.Sprintf("shard-%d", sh), Peers: peers[sh], Transport: transport}
	})
	if err != nil {
		st.Close() //nolint:errcheck
		return nil, err
	}
	st.replicated, st.ShardedEngine = r, r.Sharded
	// Opening over a preloaded directory seeds every follower by snapshot;
	// set-up ends only once they have all caught up.
	if err := st.converge(); err != nil {
		st.Close() //nolint:errcheck
		return nil, err
	}
	return st, nil
}

// converge drives follower catch-up until no follower lags.
func (s *store) converge() error {
	if s.replicated == nil {
		return nil
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		s.replicated.Heartbeat()
		if s.maxLag() == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("followers still lag by %d entries after 30s of heartbeats", s.maxLag())
		}
	}
}

func (s *store) maxLag() uint64 {
	var max uint64
	if s.replicated != nil {
		for _, lag := range s.replicated.Lag() {
			if lag > max {
				max = lag
			}
		}
	}
	return max
}

func (s *store) telemetry() telemetry.Snapshot {
	if s.replicated != nil {
		return s.replicated.TelemetrySnapshot()
	}
	return s.ShardedEngine.TelemetrySnapshot()
}

func (s *store) Close() error {
	var first error
	switch {
	case s.replicated != nil:
		first = s.replicated.Close()
	case s.ShardedEngine != nil:
		first = s.ShardedEngine.Close()
	}
	for _, fo := range s.followers {
		if err := fo.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// treeBytes sums the sizes of the regular files under dir: the service's
// shards and, on ingest-quorum, the follower directories beside it. The
// store must be closed, or files come and go under the walk.
func treeBytes(dir string) (int64, error) {
	var total int64
	err := filepath.WalkDir(dir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.Type().IsRegular() {
			info, err := e.Info()
			if err != nil {
				return err
			}
			total += info.Size()
		}
		return nil
	})
	return total, err
}
