package engine

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"math"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/telemetry"
	"github.com/onioncurve/onion/internal/vfs"
)

// ErrSnapshot reports a malformed, missing or mismatched snapshot
// manifest.
var ErrSnapshot = errors.New("engine: invalid snapshot")

// snapshotManifestName is the file whose atomic appearance commits a
// snapshot: a snapshot directory without it is garbage from an
// interrupted export and is never read.
const snapshotManifestName = "SNAPSHOT"

// snapshotManifestHeader opens the one manifest format read: v1, which
// recorded no curve fingerprint, is refused.
const snapshotManifestHeader = "onion-snapshot v2"

// maxSnapshotManifestBytes bounds a SNAPSHOT manifest, which is input
// from outside the program: a larger file is rejected after reading this
// much of it. A manifest is its identity lines (under
// curve.MaxRecordBytes), two paths (each under PATH_MAX, 4 096 bytes) and
// a line of at most 113 bytes a segment, so 1 MiB holds over 9 000
// segments, where size-tiered compaction keeps a live engine to a few
// dozen.
const maxSnapshotManifestBytes = 1 << 20

// SnapshotReport summarizes one snapshot export.
type SnapshotReport struct {
	Dir      string // the snapshot directory
	Epoch    uint64 // 1 for a full snapshot, parent epoch + 1 for incremental
	Segments int    // segments in the snapshot's full set
	Copied   int    // segment files byte-copied this export
	Linked   int    // segment files hardlinked this export
	Reused   int    // segment files inherited from the parent snapshot
	Records  int    // records across the snapshot's segments (incl. tombstones)
}

// snapSeg is one segment line of a snapshot manifest.
type snapSeg struct {
	name string
	id   segID // parsed from name
	size int64
	recs int
}

// snapManifest is a parsed snapshot manifest. The segment list is the
// snapshot's FULL segment set; incremental snapshots store only the
// set-difference against the parent on disk, so resolving a segment file
// walks the parent chain.
type snapManifest struct {
	id     curve.Identity
	epoch  uint64
	parent string // parent snapshot dir, "" for a full snapshot
	// archive is the source engine's WAL archive dir, which a restore
	// replays past the snapshot boundary; "" (written "-") for a snapshot
	// that restores to its own boundary only: a seed, or a snapshot of an
	// engine that never archives.
	archive string
	segs    []snapSeg
}

func (m *snapManifest) body() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n%sepoch %d\n", snapshotManifestHeader, m.id.Lines(), m.epoch)
	fmt.Fprintf(&b, "parent %s\narchive %s\nsegments %d\n", orDash(m.parent), orDash(m.archive), len(m.segs))
	for _, s := range m.segs {
		fmt.Fprintf(&b, "%s %d %d\n", s.name, s.size, s.recs)
	}
	return b.String()
}

// orDash writes an absent manifest path as "-".
func orDash(path string) string {
	if path == "" {
		return "-"
	}
	return path
}

func parseSnapshotManifest(data []byte) (*snapManifest, error) {
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	bad := func(what string) error {
		return fmt.Errorf("%w: manifest %s", ErrSnapshot, what)
	}
	if lines[0] != snapshotManifestHeader || len(lines) < 9 {
		return nil, bad(fmt.Sprintf("header %.40q: want %q and at least nine lines", lines[0], snapshotManifestHeader))
	}
	id, err := curve.ParseIdentity(lines[1:5])
	if err != nil {
		return nil, fmt.Errorf("%w: manifest: %w", ErrSnapshot, err)
	}
	lines = lines[4:] // past the identity lines: lines[1] is the epoch line
	epoch, ok := curve.ManifestNumber(lines[1], "epoch ")
	if !ok {
		return nil, bad("epoch line")
	}
	m := &snapManifest{id: id, epoch: epoch}
	// parent and archive are paths (may contain spaces): everything after
	// the first space is the value.
	key, val, ok := strings.Cut(lines[2], " ")
	if !ok || key != "parent" {
		return nil, bad("parent line")
	}
	if val != "-" {
		m.parent = val
	}
	key, val, ok = strings.Cut(lines[3], " ")
	if !ok || key != "archive" {
		return nil, bad("archive line")
	}
	if val != "-" {
		m.archive = val
	}
	n, ok := curve.ManifestNumber(lines[4], "segments ")
	if !ok {
		return nil, bad("segments line")
	}
	if uint64(len(lines)-5) != n {
		return nil, bad("segment count")
	}
	for _, ln := range lines[5:] {
		var s snapSeg
		f := strings.Split(ln, " ")
		if len(f) != 3 {
			return nil, bad("segment line")
		}
		size, ok1 := curve.ManifestNumber(f[1], "")
		recs, ok2 := curve.ManifestNumber(f[2], "")
		if !ok1 || !ok2 || size > math.MaxInt64 || recs > math.MaxInt {
			return nil, bad("segment line")
		}
		s.name, s.size, s.recs = f[0], int64(size), int(recs)
		if n, _ := fmt.Sscanf(s.name, "seg-%d-%d-%d.pst", &s.id.lo, &s.id.hi, &s.id.epoch); n != 3 ||
			s.name != filepath.Base(segPath(".", s.id.lo, s.id.hi, s.id.epoch)) {
			return nil, bad("segment name")
		}
		m.segs = append(m.segs, s)
	}
	return m, nil
}

// readSnapshotManifest loads and parses dir's SNAPSHOT manifest, which
// must record the curve want (ErrSnapshot wrapping curve.ErrMismatch).
func readSnapshotManifest(fsys vfs.FS, dir string, want curve.Identity) (*snapManifest, error) {
	data, err := vfs.ReadAtMost(fsys, filepath.Join(dir, snapshotManifestName), maxSnapshotManifestBytes+1)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, fmt.Errorf("%w: no manifest in %s (interrupted export?)", ErrSnapshot, dir)
		}
		return nil, fmt.Errorf("engine: snapshot: %w", err)
	}
	if len(data) > maxSnapshotManifestBytes {
		return nil, fmt.Errorf("%w: manifest over %d bytes", ErrSnapshot, maxSnapshotManifestBytes)
	}
	m, err := parseSnapshotManifest(data)
	if err != nil {
		return nil, err
	}
	if err := want.Check(m.id); err != nil {
		return nil, fmt.Errorf("%w: %s: %w", ErrSnapshot, dir, err)
	}
	return m, nil
}

// copyFileOrLink materializes src at dst: a hardlink when the filesystem
// offers vfs.Linker (same bytes, no copy — segments are immutable so
// sharing is safe), a byte copy otherwise. Any pre-existing dst (debris
// of an interrupted export) is replaced.
func copyFileOrLink(fsys vfs.FS, src, dst string) (linked bool, size int64, err error) {
	if err := fsys.Remove(dst); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return false, 0, fmt.Errorf("engine: snapshot: %w", err)
	}
	if l, ok := fsys.(vfs.Linker); ok {
		if err := l.Link(src, dst); err == nil {
			f, err := fsys.Open(dst)
			if err != nil {
				return true, 0, fmt.Errorf("engine: snapshot: %w", err)
			}
			fi, err := f.Stat()
			f.Close()
			if err != nil {
				return true, 0, fmt.Errorf("engine: snapshot: %w", err)
			}
			return true, fi.Size(), nil
		}
		// Link can fail across devices or filesystems: fall through to a
		// byte copy.
	}
	size, err = copyFile(fsys, src, dst)
	return false, size, err
}

func copyFile(fsys vfs.FS, src, dst string) (int64, error) {
	in, err := fsys.Open(src)
	if err != nil {
		return 0, fmt.Errorf("engine: snapshot: %w", err)
	}
	defer in.Close()
	out, err := fsys.Create(dst)
	if err != nil {
		return 0, fmt.Errorf("engine: snapshot: %w", err)
	}
	buf := make([]byte, 1<<16)
	var off int64
	for {
		n, rerr := in.ReadAt(buf, off)
		if n > 0 {
			if _, werr := out.Write(buf[:n]); werr != nil {
				out.Close()
				return 0, fmt.Errorf("engine: snapshot: %w", werr)
			}
			off += int64(n)
		}
		if rerr == io.EOF {
			break
		}
		if rerr != nil {
			out.Close()
			return 0, fmt.Errorf("engine: snapshot: %w", rerr)
		}
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return 0, fmt.Errorf("engine: snapshot: %w", err)
	}
	if err := out.Close(); err != nil {
		return 0, fmt.Errorf("engine: snapshot: %w", err)
	}
	return off, nil
}

// Snapshot exports a full, consistent snapshot of the engine into dir:
// every live segment plus a manifest. The export is crash-atomic — the
// manifest is written tmp + fsync + rename + directory fsync as the last
// step, so an interrupted export leaves a directory without a manifest,
// which Restore refuses; the source engine is never modified beyond a
// leading flush. Writes proceed concurrently; the snapshot captures
// exactly the writes acknowledged before the call's internal flush.
func (e *Engine) Snapshot(dir string) (SnapshotReport, error) {
	return e.SnapshotSince(dir, "")
}

// SnapshotSince is Snapshot with incremental export: segments already
// listed in the parent snapshot's manifest are referenced, not copied, so
// the new snapshot directory holds only the set-difference. Restoring an
// incremental snapshot resolves segment files through the parent chain,
// so parents must outlive their children. An empty parent selects a full
// export.
func (e *Engine) SnapshotSince(dir, parent string) (SnapshotReport, error) {
	return e.snapshot(dir, parent, false)
}

// ExportSeed exports a full snapshot that restores to its own boundary
// only: it neither creates the engine's WAL archive nor starts archiving,
// and its manifest names no archive. It is the catch-up snapshot of a
// replication leader, whose resend window holds every entry past the
// seed's base, so replaying the leader's archive would only re-apply
// entries the window ships anyway. An engine that already archives keeps
// archiving; a later Snapshot or SnapshotSince starts the archive as
// usual. The repl package calls it, as it sets NoArchive on followers.
func ExportSeed(e *Engine, dir string) (SnapshotReport, error) {
	return e.snapshot(dir, "", true)
}

// snapshot is the body of SnapshotSince and ExportSeed.
func (e *Engine) snapshot(dir, parent string, seed bool) (SnapshotReport, error) {
	// flushMu freezes the segment set: flush and compaction bodies hold it
	// for their whole duration, so the live segment list cannot change
	// under the export.
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	start := time.Now()
	e.emitEvent(telemetry.Event{Kind: telemetry.EvSnapshot, Phase: telemetry.PhaseStart, Detail: dir})
	rep, err := e.snapshotSinceLocked(dir, parent, seed)
	dur := time.Since(start)
	if tel := e.tel; tel != nil && err == nil {
		tel.snapshots.Inc()
		tel.snapshotUS.Record(uint64(dur.Microseconds()))
	}
	e.emitEvent(telemetry.Event{Kind: telemetry.EvSnapshot, Phase: telemetry.PhaseEnd,
		Dur: dur, Records: int64(rep.Records), Err: errString(err),
		Detail: fmt.Sprintf("%d segments (%d copied, %d linked, %d reused)",
			rep.Segments, rep.Copied, rep.Linked, rep.Reused)})
	return rep, err
}

// snapshotSinceLocked is snapshot's body; the caller holds flushMu. A
// seed, and any snapshot of a NoArchive engine, names no archive in its
// manifest and leaves the archive as it is.
func (e *Engine) snapshotSinceLocked(dir, parent string, seed bool) (SnapshotReport, error) {
	// Start the archive before the flush: from the first snapshot on, a
	// retired WAL holds writes a restore replays past a snapshot
	// boundary. The directory, made durable here, is what tells a reopen
	// that a snapshot was exported; it lands before the manifest commits,
	// so a crash in between errs towards keeping.
	archive := !seed && !e.opts.noArchive
	if archive {
		if err := e.fs.MkdirAll(archiveDir(e.dir), 0o755); err != nil {
			return SnapshotReport{}, fmt.Errorf("engine: snapshot: %w", err)
		}
		if err := syncDir(e.fs, e.dir); err != nil {
			return SnapshotReport{}, err
		}
		e.archiving = true
	}
	// Flush: the snapshot then contains every write acknowledged before
	// this point.
	if err := e.flushLocked(); err != nil {
		return SnapshotReport{}, err
	}

	var parentMan *snapManifest
	parentSegs := map[string]snapSeg{}
	if parent != "" {
		var err error
		parentMan, err = readSnapshotManifest(e.fs, parent, e.id)
		if err != nil {
			return SnapshotReport{}, err
		}
		for _, s := range parentMan.segs {
			parentSegs[s.name] = s
		}
	}

	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return SnapshotReport{}, ErrClosed
	}
	segs := append([]*segment{}, e.segs...)
	e.mu.RUnlock()

	if err := e.fs.MkdirAll(dir, 0o755); err != nil {
		return SnapshotReport{}, fmt.Errorf("engine: snapshot: %w", err)
	}
	man := &snapManifest{id: e.id, epoch: 1, parent: parent}
	if archive {
		man.archive = archiveDir(e.dir)
	}
	if parentMan != nil {
		man.epoch = parentMan.epoch + 1
	}
	rep := SnapshotReport{Dir: dir, Epoch: man.epoch}
	for _, s := range segs {
		name := filepath.Base(s.path)
		if ps, ok := parentSegs[name]; ok {
			man.segs = append(man.segs, ps)
			rep.Reused++
			rep.Records += ps.recs
			continue
		}
		linked, size, err := copyFileOrLink(e.fs, s.path, filepath.Join(dir, name))
		if err != nil {
			return SnapshotReport{}, err
		}
		if linked {
			rep.Linked++
		} else {
			rep.Copied++
		}
		man.segs = append(man.segs, snapSeg{name: name, id: segID{s.lo, s.hi, s.epoch}, size: size, recs: s.recs})
		rep.Records += s.recs
	}
	sort.Slice(man.segs, func(a, b int) bool { return man.segs[a].name < man.segs[b].name })
	rep.Segments = len(man.segs)
	// Make the segment copies durable before the manifest that references
	// them can appear.
	if err := syncDir(e.fs, dir); err != nil {
		return SnapshotReport{}, err
	}
	// The manifest's rename into place is the snapshot's commit point.
	if err := vfs.WriteFileAtomic(e.fs, filepath.Join(dir, snapshotManifestName), []byte(man.body())); err != nil {
		return SnapshotReport{}, fmt.Errorf("engine: snapshot: %w", err)
	}
	return rep, nil
}

// resolveSnapshotSegment finds the file backing a manifest segment: the
// snapshot's own directory first, then the parent chain (incremental
// snapshots store only their delta). The size check catches a truncated
// copy or a mismatched parent.
func resolveSnapshotSegment(fsys vfs.FS, dir string, man *snapManifest, want snapSeg) (string, error) {
	for {
		p := filepath.Join(dir, want.name)
		if f, err := fsys.Open(p); err == nil {
			fi, serr := f.Stat()
			f.Close()
			if serr != nil {
				return "", fmt.Errorf("engine: snapshot: %w", serr)
			}
			if fi.Size() != want.size {
				return "", fmt.Errorf("%w: %s is %d bytes, manifest records %d",
					ErrSnapshot, p, fi.Size(), want.size)
			}
			return p, nil
		} else if !errors.Is(err, fs.ErrNotExist) {
			return "", fmt.Errorf("engine: snapshot: %w", err)
		}
		if man.parent == "" {
			return "", fmt.Errorf("%w: segment %s not found in snapshot chain", ErrSnapshot, want.name)
		}
		var err error
		dir = man.parent
		man, err = readSnapshotManifest(fsys, dir, man.id)
		if err != nil {
			return "", err
		}
	}
}
