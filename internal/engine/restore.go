package engine

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/pagedstore"
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
// targetDir must not exist, and it is left absent or complete (see
// buildDir). A restore never modifies the snapshot or the source engine.
func Restore(snapshotDir, targetDir string, upTo int, c curve.Curve, opts Options) (RestoreReport, error) {
	opts = opts.withDefaults()
	fsys := vfs.Or(opts.FS)
	rep := RestoreReport{Dir: targetDir}

	id := curve.IdentityOf(c)
	man, err := readSnapshotManifest(fsys, snapshotDir, id)
	if err != nil {
		return rep, err
	}
	err = buildDir(fsys, targetDir, "restore", id, func(tmp string) error {
		var segIDs []segID
		var nextGen uint64
		for _, s := range man.segs {
			src, err := resolveSnapshotSegment(fsys, snapshotDir, man, s)
			if err != nil {
				return err
			}
			linked, _, err := copyFileOrLink(fsys, src, filepath.Join(tmp, s.name))
			if err != nil {
				return err
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
				return err
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
				return err
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
				return err
			}
			rep.Records += len(ents)
			seg.st.Close()
		}
		return nil
	})
	return rep, err
}

// Load bulk-loads recs into a new engine directory at dir, clustered by
// c: what a run of Puts and a Flush would leave, less the WAL. Each point
// must lie in c's universe (ErrPoint), and where points repeat the last
// record of each is kept, as a run of Puts keeps it. The records become
// one segment of opts.PageBytes pages written through opts.FS, and the
// directory records c's identity, so it opens under c only. dir must not
// exist, and it is left absent or complete (see buildDir).
func Load(dir string, c curve.Curve, recs []Record, opts Options) error {
	opts = opts.withDefaults()
	ents := make([]pagedstore.Entry, len(recs))
	for i, r := range recs {
		k, err := KeyOf(c, r.Point)
		if err != nil {
			return fmt.Errorf("engine: load: %w", err)
		}
		ents[i] = pagedstore.Entry{Key: k, Payload: r.Payload}
	}
	sort.SliceStable(ents, func(a, b int) bool { return ents[a].Key < ents[b].Key })
	kept := ents[:0]
	for i, e := range ents {
		if i+1 == len(ents) || ents[i+1].Key != e.Key {
			kept = append(kept, e)
		}
	}
	fsys := vfs.Or(opts.FS)
	return buildDir(fsys, dir, "load", curve.IdentityOf(c), func(tmp string) error {
		if len(kept) == 0 {
			return nil
		}
		seg, err := writeSegment(fsys, tmp, c, segID{}, kept, opts.PageBytes, nil)
		if err != nil {
			return err
		}
		return seg.st.Close()
	})
}

// buildDir materializes a new engine directory at dir, which must not
// exist: build fills a sibling staging directory (debris of an earlier
// interrupted build is cleared first), then the staging directory is
// stamped with the curve identity — a write that ends with the fsync
// making every staged entry durable — renamed into place, and the parent
// fsynced. So a failure or crash at any point leaves dir absent or
// complete, never half-built. Only the parent's fsync can fail with dir
// complete: the build is whole but its durability failed, the rename is
// not rolled back, and a retry is refused because dir exists. what names
// the operation in errors and in the staging name.
func buildDir(fsys vfs.FS, dir, what string, id curve.Identity, build func(tmp string) error) error {
	if _, err := fsys.ReadDir(dir); err == nil {
		return fmt.Errorf("engine: %s: target %s already exists", what, dir)
	} else if !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("engine: %s: %w", what, err)
	}
	tmp := dir + "." + what + "-tmp"
	if err := vfs.RemoveAll(fsys, tmp); err != nil {
		return fmt.Errorf("engine: %s: %w", what, err)
	}
	if err := fsys.MkdirAll(tmp, 0o755); err != nil {
		return fmt.Errorf("engine: %s: %w", what, err)
	}
	if err := build(tmp); err != nil {
		return err
	}
	if err := vfs.WriteFileAtomic(fsys, filepath.Join(tmp, identityFile), id.Record()); err != nil {
		return fmt.Errorf("engine: %s: %w", what, err)
	}
	if err := fsys.Rename(tmp, dir); err != nil {
		return fmt.Errorf("engine: %s: %w", what, err)
	}
	return syncDir(fsys, filepath.Dir(dir))
}
