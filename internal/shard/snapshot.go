// Sharded recovery: epoch-stamped composite snapshots, point-in-time
// restore and quarantine repair, composed shard by shard from the
// engine's primitives. A sharded snapshot is one directory holding a
// per-shard engine snapshot under shard-<i>/ plus a top-level manifest
// whose atomic appearance commits the whole composite — an interrupted
// export leaves per-shard debris but no manifest, which Restore refuses.
package shard

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"strings"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/vfs"
)

// ErrSnapshot reports a malformed, missing or mismatched sharded
// snapshot manifest.
var ErrSnapshot = errors.New("shard: invalid snapshot")

const snapshotManifestName = "SNAPSHOT"

// maxSnapshotManifestBytes bounds a composite SNAPSHOT manifest, which
// is input from outside the program: a header line and an epoch line
// (under 64 bytes together) and a directory manifest body, which
// checkManifest holds to curve.MaxRecordBytes. A larger file is rejected
// after reading this much of it.
const maxSnapshotManifestBytes = curve.MaxRecordBytes + 64

// SnapshotReport summarizes one composite snapshot export.
type SnapshotReport struct {
	Dir      string
	Epoch    uint64 // 1 for a full snapshot, parent epoch + 1 for incremental
	PerShard []engine.SnapshotReport
	Segments int
	Copied   int
	Linked   int
	Reused   int
	Records  int
}

// snapshotManifestBody stamps the composite: the epoch orders snapshots
// of one store, and the embedded configuration identity (the same body
// the directory MANIFEST records) pins which store the snapshot is of.
func snapshotManifestBody(id curve.Identity, shards int, epoch uint64) string {
	return fmt.Sprintf("onion-sharded-snapshot v1\nepoch %d\n%s", epoch, manifest(id, shards))
}

// readSnapshotEpoch validates dir as a snapshot of this configuration
// and returns its epoch.
func readSnapshotEpoch(fsys vfs.FS, dir string, id curve.Identity, shards int) (uint64, error) {
	data, err := vfs.ReadAtMost(fsys, filepath.Join(dir, snapshotManifestName), maxSnapshotManifestBytes+1)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return 0, fmt.Errorf("%w: no manifest in %s (interrupted export?)", ErrSnapshot, dir)
		}
		return 0, fmt.Errorf("shard: snapshot: %w", err)
	}
	if len(data) > maxSnapshotManifestBytes {
		return 0, fmt.Errorf("%w: manifest over %d bytes", ErrSnapshot, maxSnapshotManifestBytes)
	}
	lines := strings.SplitN(string(data), "\n", 3)
	if len(lines) != 3 || lines[0] != "onion-sharded-snapshot v1" {
		return 0, fmt.Errorf("%w: manifest header", ErrSnapshot)
	}
	epoch, ok := curve.ManifestNumber(lines[1], "epoch ")
	if !ok {
		return 0, fmt.Errorf("%w: manifest epoch", ErrSnapshot)
	}
	if err := checkManifest(lines[2], id, shards); err != nil {
		return 0, fmt.Errorf("%w: %s: %w", ErrSnapshot, dir, err)
	}
	return epoch, nil
}

// Snapshot exports a full, consistent composite snapshot into dir: every
// shard engine snapshots into dir/shard-<i> (concurrently — each shard's
// snapshot is consistent with its own acknowledged writes), and one
// epoch-stamped top-level manifest commits the composite atomically as
// the last step.
func (s *Sharded) Snapshot(dir string) (SnapshotReport, error) {
	return s.SnapshotSince(dir, "")
}

// SnapshotSince is Snapshot with incremental export against a prior
// composite snapshot: each shard exports only its set-difference against
// the matching shard of the parent (see engine.SnapshotSince). The new
// epoch is the parent's plus one.
func (s *Sharded) SnapshotSince(dir, parent string) (SnapshotReport, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	rep := SnapshotReport{Dir: dir, Epoch: 1}
	if s.closed {
		return rep, ErrClosed
	}
	fsys := vfs.Or(s.opts.FS)
	if parent != "" {
		pe, err := readSnapshotEpoch(fsys, parent, s.engines[0].Identity(), len(s.engines))
		if err != nil {
			return rep, err
		}
		rep.Epoch = pe + 1
	}
	if err := fsys.MkdirAll(dir, 0o755); err != nil {
		return rep, fmt.Errorf("shard: snapshot: %w", err)
	}
	rep.PerShard = make([]engine.SnapshotReport, len(s.engines))
	if err := fanOut(len(s.engines), func(i int) (err error) {
		pshard := ""
		if parent != "" {
			pshard = shardDir(parent, i)
		}
		rep.PerShard[i], err = s.engines[i].SnapshotSince(shardDir(dir, i), pshard)
		return err
	}); err != nil {
		return rep, err
	}
	for _, pr := range rep.PerShard {
		rep.Segments += pr.Segments
		rep.Copied += pr.Copied
		rep.Linked += pr.Linked
		rep.Reused += pr.Reused
		rep.Records += pr.Records
	}
	if err := vfs.WriteFileAtomic(fsys, filepath.Join(dir, snapshotManifestName),
		[]byte(snapshotManifestBody(s.engines[0].Identity(), len(s.engines), rep.Epoch))); err != nil {
		return rep, fmt.Errorf("shard: snapshot: %w", err)
	}
	return rep, nil
}

// Restore materializes a fresh sharded directory at targetDir from the
// composite snapshot at snapshotDir: each shard restores independently
// (snapshot segments + archived-WAL replay, see engine.Restore), with
// upTo bounding the records replayed PER SHARD (upTo < 0 replays
// everything). The build happens in a staging sibling renamed into place
// last, so targetDir is atomically absent-or-complete; targetDir must
// not exist. Open the result with the same curve and shard count.
func Restore(snapshotDir, targetDir string, upTo int, c curve.Curve, opts Options) ([]engine.RestoreReport, error) {
	opts = opts.withDefaults()
	engOpts, err := opts.engineOpts()
	if err != nil {
		return nil, err
	}
	fsys := vfs.Or(opts.FS)
	id := curve.IdentityOf(c)
	if _, err := readSnapshotEpoch(fsys, snapshotDir, id, opts.Shards); err != nil {
		return nil, err
	}
	if _, err := fsys.ReadDir(targetDir); err == nil {
		return nil, fmt.Errorf("shard: restore: target %s already exists", targetDir)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return nil, fmt.Errorf("shard: restore: %w", err)
	}
	tmp := targetDir + ".restore-tmp"
	if err := fsys.MkdirAll(tmp, 0o755); err != nil {
		return nil, fmt.Errorf("shard: restore: %w", err)
	}
	reps := make([]engine.RestoreReport, opts.Shards)
	if err := fanOut(opts.Shards, func(i int) (err error) {
		// Clear per-shard debris of an earlier interrupted restore:
		// engine.Restore demands an absent target.
		sdir := shardDir(tmp, i)
		if err := vfs.RemoveAll(fsys, sdir); err != nil {
			return fmt.Errorf("shard: restore: %w", err)
		}
		reps[i], err = engine.Restore(shardDir(snapshotDir, i), sdir, upTo, c, engOpts)
		return err
	}); err != nil {
		return reps, err
	}
	// Stamp the directory MANIFEST so the restored service reopens with
	// the identity it was snapshotted with, then commit the whole tree.
	if err := vfs.WriteFileAtomic(fsys, filepath.Join(tmp, manifestName), []byte(manifest(id, opts.Shards))); err != nil {
		return reps, fmt.Errorf("shard: restore: %w", err)
	}
	if err := fsys.Rename(tmp, targetDir); err != nil {
		return reps, fmt.Errorf("shard: restore: %w", err)
	}
	if err := fsys.SyncDir(filepath.Dir(targetDir)); err != nil {
		return reps, fmt.Errorf("shard: restore: %w", err)
	}
	return reps, nil
}

// Repair fans engine.Repair out to every shard against the matching
// shard of the composite snapshot (empty snapshotDir limits every shard
// to pure salvage), then reports per-shard results in shard order. The
// first hard error is returned; irreparable files are reported in the
// per-shard Unrepaired lists, not as errors.
func (s *Sharded) Repair(snapshotDir string) ([]engine.RepairReport, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return nil, ErrClosed
	}
	reps := make([]engine.RepairReport, len(s.engines))
	err := fanOut(len(s.engines), func(i int) (err error) {
		sdir := ""
		if snapshotDir != "" {
			sdir = shardDir(snapshotDir, i)
		}
		reps[i], err = s.engines[i].Repair(sdir)
		return err
	})
	return reps, err
}

// TryRecover attempts guarded health de-escalation on every shard (see
// engine.TryRecover) and returns the resulting states in shard order.
// Recovery failures ride in each ShardHealth's Err; the service-level
// call never fails outright.
func (s *Sharded) TryRecover() []ShardHealth {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]ShardHealth, len(s.engines))
	_ = fanOut(len(s.engines), func(i int) error {
		st, err := s.engines[i].TryRecover()
		out[i] = ShardHealth{Shard: i, State: st, Err: err}
		return nil // the error rides in out[i]
	})
	return out
}
