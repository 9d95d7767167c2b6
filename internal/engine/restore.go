package engine

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/vfs"
)

// RestoreReport summarizes one point-in-time restore.
type RestoreReport struct {
	Dir      string // the materialized engine directory
	Segments int    // segment files restored from the snapshot chain
	Copied   int    // of those, byte-copied
	Linked   int    // of those, hardlinked
	WALs     int    // archived WALs replayed (fully or partially)
	Replayed int    // WAL records applied
	Records  int    // records in the restored engine (incl. tombstones)
}

// Restore materializes a fresh engine directory at targetDir from the
// snapshot at snapshotDir plus the source's archived WALs: the snapshot's
// segments are copied (or hardlinked), then every archived WAL the
// segment set does not already cover is replayed in generation order —
// the same torn-tail and walCovered rules Open applies — and the first
// upTo replayed records are folded into one extra segment. upTo < 0
// replays everything (restore-to-latest); upTo == 0 restores the
// snapshot alone. The boundary is exact for cleanly flushed history:
// record j of the replay stream is the j-th write acknowledged after the
// snapshot's flush point. A snapshot whose manifest names no archive
// (archive -: a seed from ExportSeed, or a snapshot of a NoArchive
// engine) restores to its own boundary whatever upTo is, and reads
// nothing but the snapshot chain.
//
// The snapshot must record curve c (ErrSnapshot wrapping
// curve.ErrMismatch), and the restored directory records it too.
//
// targetDir must not exist. The build happens in a sibling directory
// renamed into place, so an injected failure or crash at any point leaves
// targetDir absent or complete — never a half-built engine — and never
// modifies the snapshot or the source engine. Only the fsync of the parent
// after the rename can fail with targetDir complete: the restore is then
// whole but its durability failed. The rename is not rolled back, and a
// retry is refused because targetDir exists.
func Restore(snapshotDir, targetDir string, upTo int, c curve.Curve, opts Options) (RestoreReport, error) {
	opts = opts.withDefaults()
	fsys := vfs.Or(opts.FS)
	rep := RestoreReport{Dir: targetDir}

	id := curve.IdentityOf(c)
	man, err := readSnapshotManifest(fsys, snapshotDir, id)
	if err != nil {
		return rep, err
	}
	if _, err := fsys.ReadDir(targetDir); err == nil {
		return rep, fmt.Errorf("engine: restore: target %s already exists", targetDir)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return rep, fmt.Errorf("engine: restore: %w", err)
	}

	// Build in a sibling staging directory; clear debris of an earlier
	// interrupted restore.
	tmp := targetDir + ".restore-tmp"
	if err := vfs.RemoveAll(fsys, tmp); err != nil {
		return rep, fmt.Errorf("engine: restore: %w", err)
	}
	if err := fsys.MkdirAll(tmp, 0o755); err != nil {
		return rep, fmt.Errorf("engine: restore: %w", err)
	}

	var segIDs []segID
	var nextGen uint64
	for _, s := range man.segs {
		src, err := resolveSnapshotSegment(fsys, snapshotDir, man, s)
		if err != nil {
			return rep, err
		}
		linked, _, err := copyFileOrLink(fsys, src, filepath.Join(tmp, s.name))
		if err != nil {
			return rep, err
		}
		if linked {
			rep.Linked++
		} else {
			rep.Copied++
		}
		rep.Segments++
		rep.Records += s.recs
		segIDs = append(segIDs, s.id)
		nextGen = max(nextGen, s.id.hi+1)
	}

	// Replay the archive past the snapshot: WALs whose generation a
	// snapshot segment covers hold nothing the segments don't (the Open
	// rule); the rest carry the writes acknowledged after the snapshot,
	// in generation order = acknowledgement order.
	var gens []uint64
	if man.archive != "" {
		if gens, err = archivedWALs(fsys, man.archive); err != nil {
			return rep, err
		}
	}
	var mem *memtable
	var seq uint64
	for _, g := range gens {
		if walCovered(segIDs, g) {
			continue
		}
		if upTo >= 0 && rep.Replayed >= upTo {
			break
		}
		ops, err := replayWAL(fsys, walPath(man.archive, g), c.Universe().Size())
		if err != nil {
			return rep, err
		}
		if len(ops) == 0 {
			continue
		}
		rep.WALs++
		if g >= nextGen {
			nextGen = g + 1
		}
		for _, op := range ops {
			if upTo >= 0 && rep.Replayed >= upTo {
				break
			}
			if mem == nil {
				mem = newMemtable(nextGen, c.Universe().Size())
			}
			seq++
			mem.put(op.Key, op.Payload, seq, op.Del)
			rep.Replayed++
		}
	}
	if mem != nil {
		ents := mem.flushEntries()
		seg, err := writeSegment(fsys, tmp, c, segID{lo: nextGen, hi: nextGen}, ents, opts.PageBytes, nil)
		if err != nil {
			return rep, err
		}
		rep.Records += len(ents)
		seg.st.Close()
	}

	// Commit: stamp the curve identity (its write ends with the fsync
	// that makes every staged entry durable), then atomically rename the
	// whole directory into place and fsync the parent.
	if err := vfs.WriteFileAtomic(fsys, filepath.Join(tmp, identityFile), id.Record()); err != nil {
		return rep, fmt.Errorf("engine: restore: %w", err)
	}
	if err := fsys.Rename(tmp, targetDir); err != nil {
		return rep, fmt.Errorf("engine: restore: %w", err)
	}
	if err := syncDir(fsys, filepath.Dir(targetDir)); err != nil {
		return rep, err
	}
	return rep, nil
}
