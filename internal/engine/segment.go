package engine

import (
	"errors"
	"fmt"
	"path/filepath"
	"sort"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/pagedstore"
	"github.com/onioncurve/onion/internal/vfs"
)

// ErrDir reports an engine directory whose segment files are mutually
// inconsistent in a way crash recovery cannot repair.
var ErrDir = errors.New("engine: inconsistent engine directory")

// segment is one immutable, curve-ordered on-disk run: a pagedstore file
// (mark bitmap = tombstones) covering the inclusive generation
// range [lo, hi]. Generations order data age: a segment covering later
// generations holds strictly newer writes, which is what lets the merge
// resolve duplicate keys by source recency alone, with no per-record
// sequence numbers on disk. epoch counts in-place rewrites of the same
// generation range (tombstone GC of a lone segment): the data is the
// same age, but the file name must not collide with its predecessor so
// that the swap stays crash-atomic.
type segment struct {
	st     *pagedstore.Store
	path   string
	lo, hi uint64
	epoch  uint64
	recs   int
}

func segPath(dir string, lo, hi, epoch uint64) string {
	return filepath.Join(dir, fmt.Sprintf("seg-%012d-%012d-%03d.pst", lo, hi, epoch))
}

func walPath(dir string, gen uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%012d.log", gen))
}

// segID names a segment file: its generation range plus rewrite epoch.
type segID struct {
	lo, hi, epoch uint64
}

// scanDir inventories an engine directory: segment ids and WAL
// generations, with crash artifacts repaired. A crash between "rename
// compacted segment" and "delete its inputs" leaves both on disk; the
// output's generation range strictly contains each input's (or equals it
// with a higher epoch, for a lone-segment rewrite), so any segment whose
// range is contained in another's — or that shares a range with a higher
// epoch — is a stale input and is deleted. Ranges that partially overlap
// have no legal history and are rejected. archive reports whether the
// WAL archive directory exists.
// A directory with a segment or a WAL, in it or in archive/, but no
// identity file predates identities and is refused (curve.ErrBadIdentity)
// before anything is deleted.
func scanDir(fsys vfs.FS, dir string) (segs []segID, wals []uint64, archive bool, err error) {
	ents, err := fsys.ReadDir(dir)
	if err != nil {
		return nil, nil, false, fmt.Errorf("engine: %w", err)
	}
	stamped := false
	for _, ent := range ents {
		if ent.IsDir() {
			archive = archive || ent.Name() == archiveDirName
			continue
		}
		var lo, hi, epoch, gen uint64
		name := ent.Name()
		stamped = stamped || name == identityFile
		// Sscanf ignores trailing bytes, so a leftover "seg-*.pst.tmp"
		// from a crashed write would parse as a segment; demand the
		// parsed id round-trips to the exact file name.
		if n, _ := fmt.Sscanf(name, "seg-%d-%d-%d.pst", &lo, &hi, &epoch); n == 3 &&
			name == filepath.Base(segPath(dir, lo, hi, epoch)) {
			if lo > hi {
				return nil, nil, false, fmt.Errorf("%w: segment %s", ErrDir, name)
			}
			segs = append(segs, segID{lo: lo, hi: hi, epoch: epoch})
		} else if n, _ := fmt.Sscanf(name, "wal-%d.log", &gen); n == 1 &&
			name == filepath.Base(walPath(dir, gen)) {
			wals = append(wals, gen)
		}
	}
	data := len(segs) > 0 || len(wals) > 0
	if !stamped && !data && archive {
		// An empty archive/ makes a new directory archive from its start.
		gens, err := archivedWALs(fsys, archiveDir(dir))
		if err != nil {
			return nil, nil, false, err
		}
		data = len(gens) > 0
	}
	if !stamped && data {
		return nil, nil, false, fmt.Errorf("engine: %s: %w: it holds data but no %s file (written before directories recorded their curve)",
			dir, curve.ErrBadIdentity, identityFile)
	}
	// Drop stale compaction inputs: ranges contained in another range, or
	// equal ranges superseded by a higher epoch.
	kept := segs[:0]
	for _, s := range segs {
		stale := false
		for _, t := range segs {
			if s == t {
				continue
			}
			if t.lo == s.lo && t.hi == s.hi {
				if t.epoch > s.epoch {
					stale = true
					break
				}
				continue
			}
			if t.lo <= s.lo && s.hi <= t.hi {
				stale = true
				break
			}
		}
		if stale {
			if err := fsys.Remove(segPath(dir, s.lo, s.hi, s.epoch)); err != nil {
				return nil, nil, false, fmt.Errorf("engine: removing stale segment: %w", err)
			}
			continue
		}
		kept = append(kept, s)
	}
	segs = kept
	sort.Slice(segs, func(a, b int) bool { return segs[a].lo < segs[b].lo })
	for i := 1; i < len(segs); i++ {
		if segs[i].lo <= segs[i-1].hi {
			return nil, nil, false, fmt.Errorf("%w: overlapping segments %v and %v", ErrDir, segs[i-1], segs[i])
		}
	}
	sort.Slice(wals, func(a, b int) bool { return wals[a] < wals[b] })
	return segs, wals, archive, nil
}

// openSegment opens the segment file for id against the curve, attached
// to the engine's shared page cache (nil disables caching).
func openSegment(fsys vfs.FS, dir string, c curve.Curve, id segID, cache *pagedstore.Cache) (*segment, error) {
	path := segPath(dir, id.lo, id.hi, id.epoch)
	st, err := pagedstore.OpenCachedFS(fsys, path, c, cache)
	if err != nil {
		return nil, fmt.Errorf("engine: segment %s: %w", filepath.Base(path), err)
	}
	return &segment{st: st, path: path, lo: id.lo, hi: id.hi, epoch: id.epoch, recs: st.Len()}, nil
}

// writeSegment materializes key-sorted entries as the segment id: a
// pagedstore file (marks = tombstones) written to a temporary name,
// synced, then atomically renamed into place. The writer trusts each
// entry's key — every producer (flush, compaction, recovery, restore,
// repair) carries the key the memtable or a segment already held — and
// rejects a run that is out of order before creating the file.
func writeSegment(fsys vfs.FS, dir string, c curve.Curve, id segID, ents []pagedstore.Entry, pageBytes int, cache *pagedstore.Cache) (*segment, error) {
	path := segPath(dir, id.lo, id.hi, id.epoch)
	tmp := path + ".tmp"
	if err := pagedstore.WriteEntries(fsys, tmp, c, ents, pageBytes); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	if err := fsys.Rename(tmp, path); err != nil {
		return nil, fmt.Errorf("engine: %w", err)
	}
	// Fsync the directory so the rename is durable before any caller
	// retires a WAL or a compaction input: without the barrier a power
	// loss could persist those unlinks but not this rename.
	if err := syncDir(fsys, dir); err != nil {
		return nil, err
	}
	return openSegment(fsys, dir, c, id, cache)
}

// syncDir fsyncs a directory, making its entry updates durable.
func syncDir(fsys vfs.FS, dir string) error {
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("engine: %w", err)
	}
	return nil
}
