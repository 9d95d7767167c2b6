package engine

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"

	"github.com/onioncurve/onion/internal/vfs"
)

// archiveDirName is the subdirectory of an engine dir that holds retired
// WALs. scanDir skips directories, so archived logs are invisible to the
// normal Open path; Restore replays them for point-in-time recovery. Its
// existence is also the engine's durable record that a snapshot was
// exported: the first Snapshot or SnapshotSince creates it (ExportSeed
// does not), and Open resumes archiving when it finds it.
const archiveDirName = "archive"

func archiveDir(dir string) string { return filepath.Join(dir, archiveDirName) }

// NoArchive returns o with WAL archiving off: every retired WAL is
// deleted, even after a snapshot, and every snapshot's manifest names no
// archive, so it restores to its own boundary only. It is the mode of a
// replication follower, whose replication log holds each entry until its
// engine holds it in a segment: a user snapshot of a follower's engine
// would otherwise start an archive that duplicates that log and that
// nothing prunes. The repl package sets it on followers, as it sets
// Options.CommitHook on leaders.
func NoArchive(o Options) Options {
	o.noArchive = true
	return o
}

// archiveWAL retires the WAL of generation g. Before the engine's first
// snapshot (archive false) no restore can replay the log — every
// snapshot flushes first, so its segments cover each WAL retired before
// it — and it is deleted. After that it moves into dir/archive/ under
// its own name: rename is atomic, so a crash leaves the log in exactly
// one of the two directories and replay finds it either way.
//
// The engine-dir fsync makes the unlink durable only after the archive
// entry exists; the archive-dir fsync then pins the new entry. Ordering
// matters: persisting the removal without the archive entry would lose
// the log.
func archiveWAL(fsys vfs.FS, dir string, g uint64, archive bool) error {
	if !archive {
		if err := fsys.Remove(walPath(dir, g)); err != nil {
			return fmt.Errorf("engine: %w", err)
		}
		return nil
	}
	adir := archiveDir(dir)
	if err := fsys.MkdirAll(adir, 0o755); err != nil {
		return fmt.Errorf("engine: archive: %w", err)
	}
	src := walPath(dir, g)
	dst := filepath.Join(adir, filepath.Base(src))
	if err := fsys.Rename(src, dst); err != nil {
		return fmt.Errorf("engine: archive: %w", err)
	}
	if err := fsys.SyncDir(adir); err != nil {
		return fmt.Errorf("engine: archive: %w", err)
	}
	if err := fsys.SyncDir(dir); err != nil {
		return fmt.Errorf("engine: archive: %w", err)
	}
	return nil
}

// archivedWALs lists the WAL generations present in the archive
// directory, ascending. A missing archive directory is an empty history,
// not an error.
func archivedWALs(fsys vfs.FS, adir string) ([]uint64, error) {
	ents, err := fsys.ReadDir(adir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil // archive never created: empty history
		}
		return nil, fmt.Errorf("engine: archive: %w", err)
	}
	var gens []uint64
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		var g uint64
		name := ent.Name()
		if n, _ := fmt.Sscanf(name, "wal-%d.log", &g); n == 1 &&
			name == filepath.Base(walPath(adir, g)) {
			gens = append(gens, g)
		}
	}
	sort.Slice(gens, func(a, b int) bool { return gens[a] < gens[b] })
	return gens, nil
}
