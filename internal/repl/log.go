package repl

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/framedlog"
	"github.com/onioncurve/onion/internal/vfs"
)

// The follower's replication log is a framedlog file — the engine WAL's
// frame format, torn-tail rule and failure latch — whose payloads are
//
//	entry := index(8 LE) | epoch(8 LE) | batch
//
// where batch is the leader's WAL frame payload for the batch, so the
// frame CRC covers index and epoch as well as the ops. The file is
// only ever appended to or replaced whole: open, truncation and
// compaction publish the surviving entries through a tmp + rename and
// keep appending on that handle.

const (
	logName   = "REPL_LOG"
	stateName = "REPL_STATE"

	entryHeader = 8 + 8
)

var errLog = errors.New("repl: replication log failure")

// logErr marks a log I/O error as errLog (nil stays nil).
func logErr(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", errLog, err)
}

func encodeEntry(dst []byte, e Entry) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, e.Index)
	dst = binary.LittleEndian.AppendUint64(dst, e.Epoch)
	return append(dst, e.Batch...)
}

// decodeEntry parses one frame payload. The entry's Batch aliases p.
func decodeEntry(p []byte) (Entry, bool) {
	if len(p) <= entryHeader {
		return Entry{}, false
	}
	return Entry{
		Index: binary.LittleEndian.Uint64(p[0:]),
		Epoch: binary.LittleEndian.Uint64(p[8:]),
		Batch: p[entryHeader:],
	}, true
}

// replLog is the durable entry store plus its in-memory index. The
// caller (Follower) serializes access.
type replLog struct {
	fsys    vfs.FS
	path    string
	w       *framedlog.Writer
	enc     []byte  // encodeEntry scratch
	entries []Entry // in log order; indices strictly increasing, gaps legal
	ops     int     // ops held by entries
}

// openReplLog replays the log in dir (a missing file is an empty log),
// keeping the longest prefix of intact,
// index-ordered entries, and republishes that prefix so appends land
// right after it. The entries' batches alias the one buffer the file is
// read into, and the entry index is sized once from the frame count, so
// opening allocates the same whatever the log's length.
func openReplLog(fsys vfs.FS, dir string) (*replLog, error) {
	l := &replLog{fsys: fsys, path: filepath.Join(dir, logName)}
	data, err := vfs.ReadFile(fsys, l.path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, logErr(err)
	}
	l.entries = make([]Entry, 0, framedlog.Frames(data))
	framedlog.ReplayBytes(data, func(p []byte) bool {
		e, ok := decodeEntry(p)
		if n := len(l.entries); !ok || (n > 0 && e.Index <= l.entries[n-1].Index) {
			return false // not an entry, or an ordering violation: tail damage
		}
		l.entries = append(l.entries, e)
		return true
	})
	// rewrite copies its argument onto l.entries: here, onto itself.
	if err := l.rewrite(l.entries); err != nil {
		if l.w != nil {
			l.w.Abandon()
		}
		return nil, err
	}
	return l, nil
}

// write frames the entries into w and fsyncs it.
func (l *replLog) write(w *framedlog.Writer, es []Entry) error {
	for _, e := range es {
		l.enc = encodeEntry(l.enc[:0], e)
		if err := w.Append(l.enc); err != nil {
			return err
		}
	}
	return w.Sync()
}

// append makes the entries durable. A failed write or fsync latches the
// log failed: the file's tail is unknowable, and acknowledging an entry
// written behind a torn region replay cannot cross would be lying, so
// every later append is refused until the follower is reopened.
func (l *replLog) append(es []Entry) error {
	if len(es) == 0 {
		return nil
	}
	if err := l.write(l.w, es); err != nil {
		return logErr(err)
	}
	l.entries = append(l.entries, es...)
	l.ops += l.countOps(es)
	return nil
}

func (l *replLog) countOps(es []Entry) int {
	n := 0
	for _, e := range es {
		n += engine.BatchLen(e.Batch)
	}
	return n
}

// last returns the final entry's (index, epoch), or (0, 0, false) when
// the log is empty.
func (l *replLog) last() (uint64, uint64, bool) {
	if len(l.entries) == 0 {
		return 0, 0, false
	}
	e := l.entries[len(l.entries)-1]
	return e.Index, e.Epoch, true
}

// at returns the epoch of the entry with the exact index, if present.
func (l *replLog) at(index uint64) (uint64, bool) {
	i := l.search(index)
	if i < len(l.entries) && l.entries[i].Index == index {
		return l.entries[i].Epoch, true
	}
	return 0, false
}

// search returns the position of the first entry with Index >= index.
func (l *replLog) search(index uint64) int {
	return sort.Search(len(l.entries), func(i int) bool { return l.entries[i].Index >= index })
}

// slice returns the entries with lo < Index <= hi, aliasing the log's
// backing store (valid until the next mutation).
func (l *replLog) slice(lo, hi uint64) []Entry {
	i := l.search(lo + 1)
	j := l.search(hi + 1)
	return l.entries[i:j]
}

// rewrite replaces the log's content with keep: a fresh file is written
// and fsynced beside the log, renamed over it, and becomes the handle
// appends continue on. A failure before the rename leaves the old log
// and handle in place; a failed log is not rewritten.
func (l *replLog) rewrite(keep []Entry) error {
	if l.w != nil {
		if err := l.w.Err(); err != nil {
			return logErr(err)
		}
	}
	tmp := l.path + ".tmp"
	nw, err := framedlog.Create(l.fsys, tmp)
	if err != nil {
		return logErr(err)
	}
	if err = l.write(nw, keep); err == nil {
		err = l.fsys.Rename(tmp, l.path)
	}
	if err != nil {
		nw.Abandon()
		l.fsys.Remove(tmp) //nolint:errcheck // debris of a failed rewrite
		return logErr(err)
	}
	// The rename replaced the path: the old handle now points at an
	// unlinked inode, where appends (and their fsyncs) would "succeed"
	// invisibly and the acknowledged entries would vanish on restart.
	if l.w != nil {
		l.w.Abandon()
	}
	l.w = nw
	l.entries = append(l.entries[:0], keep...)
	l.ops = l.countOps(keep)
	if err := l.fsys.SyncDir(filepath.Dir(l.path)); err != nil {
		// The rename may not survive a crash, and entries appended to the
		// new inode would vanish with it: no ack may rest on this handle.
		nw.Fail(err)
		return logErr(err)
	}
	return nil
}

// truncateAfter drops every entry with Index > index.
func (l *replLog) truncateAfter(index uint64) error {
	i := l.search(index + 1)
	if i == len(l.entries) {
		return nil
	}
	return l.rewrite(append([]Entry{}, l.entries[:i]...))
}

// compactThrough drops every entry with Index <= index (the caller has
// made their effect durable in the engine).
func (l *replLog) compactThrough(index uint64) error {
	i := l.search(index + 1)
	if i == 0 {
		return nil
	}
	return l.rewrite(append([]Entry{}, l.entries[i:]...))
}

func (l *replLog) close() error { return logErr(l.w.Close()) }

// nodeState is the small durable identity record both roles keep inside
// the engine directory: who we last were, under which epoch, and (for
// followers) how the replication log relates to the engine. It is
// published atomically on role and epoch changes and on log compaction —
// never on the per-batch path.
type nodeState struct {
	// version is the header version read (writeState always writes
	// stateVersion). Version 1 sat beside a log in the retired frame
	// layout, which must not be replayed.
	version   int
	role      string // "leader" | "follower"
	epoch     uint64
	base      uint64 // entries <= base are durably applied in the engine
	baseEpoch uint64
	applied   uint64 // highest index applied (may lag after a crash; re-apply is idempotent)
}

const (
	stateVersion = 2
	stateFormat  = "onion repl state v%d\nrole %s\nepoch %d\nbase %d\nbaseEpoch %d\napplied %d\n"
)

func statePath(dir string) string { return filepath.Join(dir, stateName) }

// maxStateBytes bounds a REPL_STATE file, which is read at every open of
// a node and must not be trusted as an allocation size. The longest state
// writeState writes is 147 bytes: its six lines with the longer role and
// four 20-digit numbers; a larger file is rejected after reading this
// much of it.
const maxStateBytes = 256

// readState reads dir's REPL_STATE, reporting false when there is none.
func readState(fsys vfs.FS, dir string) (nodeState, bool, error) {
	b, err := vfs.ReadAtMost(fsys, statePath(dir), maxStateBytes+1)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nodeState{}, false, nil
		}
		return nodeState{}, false, fmt.Errorf("repl: state: %w", err)
	}
	if len(b) > maxStateBytes {
		return nodeState{}, false, fmt.Errorf("repl: state %s: over %d bytes", statePath(dir), maxStateBytes)
	}
	st, ok := parseState(string(b))
	if !ok {
		return nodeState{}, false, fmt.Errorf("repl: state %s: malformed", statePath(dir))
	}
	if st.role != "leader" && st.role != "follower" {
		return nodeState{}, false, fmt.Errorf("repl: state %s: unknown role %q", statePath(dir), st.role)
	}
	return st, true, nil
}

// parseState parses the exact six lines of stateFormat, final newline
// included, each number an unsigned decimal that ends its line.
func parseState(body string) (st nodeState, ok bool) {
	lines := strings.Split(body, "\n")
	if len(lines) != 7 || lines[6] != "" {
		return st, false
	}
	version, ok := curve.ManifestNumber(lines[0], "onion repl state v")
	if !ok || version < 1 || version > stateVersion {
		return st, false
	}
	st.version = int(version)
	if st.role, ok = strings.CutPrefix(lines[1], "role "); !ok {
		return st, false
	}
	for i, f := range []struct {
		prefix string
		v      *uint64
	}{{"epoch ", &st.epoch}, {"base ", &st.base}, {"baseEpoch ", &st.baseEpoch}, {"applied ", &st.applied}} {
		if *f.v, ok = curve.ManifestNumber(lines[2+i], f.prefix); !ok {
			return st, false
		}
	}
	return st, true
}

func writeState(fsys vfs.FS, dir string, st nodeState) error {
	body := fmt.Sprintf(stateFormat, stateVersion, st.role, st.epoch, st.base, st.baseEpoch, st.applied)
	if err := vfs.WriteFileAtomic(fsys, statePath(dir), []byte(body)); err != nil {
		return fmt.Errorf("repl: state: %w", err)
	}
	return nil
}
