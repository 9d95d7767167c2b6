package engine

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/onioncurve/onion/internal/pagedstore"
	"github.com/onioncurve/onion/internal/telemetry"
)

// Health is the engine's degradation state. States escalate on faults —
// an engine never silently heals — and lower only through the explicit,
// guarded recovery paths: TryRecover probes the write path and lowers
// ReadOnly once a probe write and a WAL rotation succeed, and Repair
// (or TryRecover after an out-of-band repair) lowers Degraded once the
// quarantine is empty and a fresh Verify passes. Failed is terminal —
// recovery from a containment failure is a reopen, never a guess. A
// fresh Open always starts Healthy.
//
//	Healthy  — full service.
//	Degraded — serving reads and writes, but something was lost at the
//	           edges: a segment was quarantined for corruption, or
//	           background compaction keeps failing. Queries over a
//	           quarantined key interval silently miss its records.
//	ReadOnly — the write path is compromised (WAL append/fsync failure,
//	           out of disk, or background flushes exhausted their
//	           retries). Writes fail with ErrReadOnly; queries serve.
//	Failed   — the engine could not contain a fault (a corrupt segment
//	           could not be quarantined). Reads may be incomplete.
type Health int32

const (
	Healthy Health = iota
	Degraded
	ReadOnly
	Failed
)

func (h Health) String() string {
	switch h {
	case Healthy:
		return "healthy"
	case Degraded:
		return "degraded"
	case ReadOnly:
		return "read-only"
	case Failed:
		return "failed"
	}
	return fmt.Sprintf("health(%d)", int32(h))
}

var (
	// ErrReadOnly reports a write rejected because the engine degraded to
	// ReadOnly (or Failed). The cause — the WAL failure, the ENOSPC —
	// stays on the chain, so errors.Is sees both.
	ErrReadOnly = errors.New("engine: read-only")
	// ErrCorrupt is pagedstore's corruption sentinel, re-exported where
	// quarantine reports surface it.
	ErrCorrupt = pagedstore.ErrCorrupt
)

// healthState is the monotonic state machine embedded in the Engine.
type healthState struct {
	state atomic.Int32
	mu    sync.Mutex
	cause error // first error that drove the current state
}

// get returns the current state and the error that caused it (nil while
// Healthy).
func (h *healthState) get() (Health, error) {
	s := Health(h.state.Load())
	if s == Healthy {
		return s, nil
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	return Health(h.state.Load()), h.cause
}

// escalate raises the state to at least s, recording cause if the state
// actually rose, and reports whether it did. Lowering goes through
// recoverTo, never through here.
func (h *healthState) escalate(s Health, cause error) bool {
	h.mu.Lock()
	rose := Health(h.state.Load()) < s
	if rose {
		h.state.Store(int32(s))
		h.cause = cause
	}
	h.mu.Unlock()
	return rose
}

// recoverTo lowers the state to s, reporting whether it moved. Failed is
// terminal and raising is escalate's job, so anything else is a no-op.
// Reaching Healthy clears the cause; a partial recovery (ReadOnly down
// to Degraded, say) records why the engine is still impaired.
func (h *healthState) recoverTo(s Health, cause error) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	cur := Health(h.state.Load())
	if cur == Failed || cur <= s {
		return false
	}
	h.state.Store(int32(s))
	if s == Healthy {
		h.cause = nil
	} else {
		h.cause = cause
	}
	return true
}

// Health returns the engine's degradation state and the error that drove
// it there (nil while Healthy). See the Health type for the contract of
// each state.
func (e *Engine) Health() (Health, error) { return e.health.get() }

// degrade escalates the engine's health; see healthState.escalate. An
// actual transition counts toward the labeled transition counter and
// lands in the event stream with its cause.
func (e *Engine) degrade(s Health, cause error) {
	if !e.health.escalate(s, cause) {
		return
	}
	e.noteHealthTransition(s, cause)
}

// recoverHealth lowers the engine's health through the guarded
// recoverTo, emitting the transition when the state actually moved.
func (e *Engine) recoverHealth(s Health, cause error) {
	if !e.health.recoverTo(s, cause) {
		return
	}
	e.noteHealthTransition(s, cause)
}

func (e *Engine) noteHealthTransition(s Health, cause error) {
	if tel := e.tel; tel != nil {
		tel.healthTo[s].Inc()
	}
	e.emitEvent(telemetry.Event{Kind: telemetry.EvHealth, Phase: telemetry.PhasePoint,
		Err: errString(cause), Detail: "-> " + s.String()})
}

// readOnlyErr builds the error a rejected write returns: ErrReadOnly
// wrapping whatever drove the engine out of service.
func (e *Engine) readOnlyErr() error {
	if _, cause := e.health.get(); cause != nil {
		return fmt.Errorf("%w: %w", ErrReadOnly, cause)
	}
	return ErrReadOnly
}

// QuarantinedSegment describes one segment pulled from service by Verify:
// where its file went and the inclusive curve-key interval whose records
// are no longer served. Callers that mirror data elsewhere use the
// interval to drive re-replication.
type QuarantinedSegment struct {
	// Path is where the corrupt file now lives (under quarantine/), or
	// its original path if even the quarantine rename failed.
	Path string
	// Lo, Hi bound the curve keys the segment covered; Empty is true for
	// a segment with no records (nothing is missing).
	Lo, Hi uint64
	Empty  bool
	// Records is how many records (tombstones included) the segment held.
	Records int
	// Cause is the corruption error that condemned the segment.
	Cause error
}

// VerifyReport summarizes one Verify pass.
type VerifyReport struct {
	SegmentsChecked int
	Quarantined     []QuarantinedSegment
}

// Verify scrubs every live segment against its checksums (reading
// straight from disk, past the page cache) and quarantines any that fail:
// the corrupt file is moved into the quarantine/ subdirectory, the
// affected key interval is reported, and the remaining segments keep
// serving. A quarantine degrades the engine to Degraded; a quarantine
// that cannot even be executed (the rename fails) degrades it to Failed.
// Verify holds the engine's maintenance lock, so it serializes with
// flushes and compactions but not with queries or writes.
func (e *Engine) Verify() (VerifyReport, error) {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	var rep VerifyReport
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return rep, ErrClosed
	}
	segs := append([]*segment{}, e.segs...)
	e.mu.RUnlock()
	start := time.Now()
	e.emitEvent(telemetry.Event{Kind: telemetry.EvScrub, Phase: telemetry.PhaseStart,
		Detail: fmt.Sprintf("verify %d segments", len(segs))})
	var firstErr error
	for _, s := range segs {
		rep.SegmentsChecked++
		verr := s.st.VerifyPages()
		if verr == nil {
			continue
		}
		if !errors.Is(verr, pagedstore.ErrCorrupt) {
			if firstErr == nil {
				firstErr = verr
			}
			continue
		}
		q := e.quarantine(s, verr)
		rep.Quarantined = append(rep.Quarantined, q)
	}
	// Deterministic report order: by key interval, not scan order, so
	// reports and goldens are stable however the segment list shuffles.
	sort.Slice(rep.Quarantined, func(a, b int) bool {
		qa, qb := rep.Quarantined[a], rep.Quarantined[b]
		if qa.Lo != qb.Lo {
			return qa.Lo < qb.Lo
		}
		if qa.Hi != qb.Hi {
			return qa.Hi < qb.Hi
		}
		return qa.Path < qb.Path
	})
	if tel := e.tel; tel != nil {
		tel.verifyPasses.Inc()
	}
	e.emitEvent(telemetry.Event{Kind: telemetry.EvScrub, Phase: telemetry.PhaseEnd,
		Dur: time.Since(start), Err: errString(firstErr),
		Detail: fmt.Sprintf("%d checked, %d quarantined", rep.SegmentsChecked, len(rep.Quarantined))})
	return rep, firstErr
}

// quarantine pulls a condemned segment out of service: it leaves the live
// list immediately (even a failed rename must stop it from serving
// corrupt pages), then its file moves under quarantine/ for offline
// inspection and the directory change is made durable, so a reopen never
// resurrects it.
func (e *Engine) quarantine(s *segment, cause error) QuarantinedSegment {
	q := QuarantinedSegment{Path: s.path, Records: s.recs, Cause: cause}
	var ok bool
	q.Lo, q.Hi, ok = s.st.KeySpan()
	q.Empty = !ok
	if tel := e.tel; tel != nil {
		tel.quarantines.Inc()
	}
	e.emitEvent(telemetry.Event{Kind: telemetry.EvScrub, Phase: telemetry.PhasePoint,
		Err: errString(cause), Records: int64(s.recs),
		Detail: "quarantined " + filepath.Base(s.path)})
	e.mu.Lock()
	for i, t := range e.segs {
		if t == s {
			e.segs = append(e.segs[:i], e.segs[i+1:]...)
			break
		}
	}
	e.mu.Unlock()
	s.st.Close() //nolint:errcheck // the file is condemned either way
	qdir := filepath.Join(e.dir, "quarantine")
	dest := filepath.Join(qdir, filepath.Base(s.path))
	err := e.fs.MkdirAll(qdir, 0o755)
	if err == nil {
		err = e.fs.Rename(s.path, dest)
	}
	if err == nil {
		err = e.fs.SyncDir(e.dir)
	}
	if err != nil {
		// The corrupt file is stranded in the data directory; a reopen
		// would serve it again. That is a containment failure.
		e.degrade(Failed, fmt.Errorf("engine: quarantine of %s: %w (corruption: %w)",
			filepath.Base(s.path), err, cause))
		return q
	}
	q.Path = dest
	e.degrade(Degraded, fmt.Errorf("engine: quarantined %s: %w", filepath.Base(s.path), cause))
	return q
}

// quarantinePath returns the engine's quarantine directory.
func (e *Engine) quarantinePath() string { return filepath.Join(e.dir, "quarantine") }

// quarantineEmpty reports whether the quarantine directory holds no
// condemned segment files (a never-created directory counts as empty).
func (e *Engine) quarantineEmpty() (bool, error) {
	ents, err := e.fs.ReadDir(e.quarantinePath())
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return true, nil
		}
		return false, fmt.Errorf("engine: %w", err)
	}
	for _, ent := range ents {
		if !ent.IsDir() {
			return false, nil
		}
	}
	return true, nil
}

// probeWrite proves the write path works again: a throwaway file is
// created, written, fsynced and removed in the engine directory through
// the engine's filesystem. ENOSPC, a dead disk or a failing fsync all
// surface here instead of on the next acknowledged write.
func (e *Engine) probeWrite() error {
	p := filepath.Join(e.dir, "health-probe.tmp")
	f, err := e.fs.Create(p)
	if err == nil {
		_, err = f.Write([]byte("onion health probe"))
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err == nil {
		err = e.fs.Remove(p)
	}
	if err != nil {
		return fmt.Errorf("engine: recovery probe: %w", err)
	}
	return nil
}

// recoverRotateLocked (flushMu held) retires the possibly-poisoned WAL:
// a fresh log and memtable swap in, the old memtable (holding every
// acknowledged write of the old log) freezes for flushing, and the old
// log file is condemned — its close errors are expected and ignored,
// because the frozen memtable is about to persist its content to a
// segment — or, if empty, deleted.
func (e *Engine) recoverRotateLocked() error {
	old, oldMem, err := e.freeze(true, true)
	if err != nil {
		return err
	}
	// Condemned log: whatever it still buffers belongs to failed,
	// unacknowledged writes and must not reach the file; errors expected.
	old.Abandon()
	if err := e.dropEmptyLog(oldMem); err != nil {
		return err
	}
	// Flush the frozen memtables — the one just rotated out plus any
	// stranded by earlier failed flushes. Each success writes a segment
	// and retires its WAL (archiveWAL).
	return e.flushLocked()
}

// TryRecover attempts guarded health de-escalation and returns the state
// the engine settled in.
//
//   - Failed is terminal: TryRecover never touches it (reopen instead).
//   - ReadOnly: a probe write proves the disk accepts durable writes
//     again, then the poisoned WAL rotates out and every stranded
//     memtable flushes. Only after all of that succeeds does the state
//     lower — to Healthy, or to Degraded if quarantined segments remain.
//   - Degraded: a full Verify re-scrubs the live segments; the state
//     lowers to Healthy only if nothing new is condemned and the
//     quarantine directory is empty (Repair empties it).
//
// TryRecover is safe to call at any time; a failed attempt changes
// nothing and returns the reason.
func (e *Engine) TryRecover() (Health, error) {
	h, cause := e.health.get()
	switch h {
	case Healthy:
		return Healthy, nil
	case Failed:
		return Failed, cause
	case ReadOnly:
		if err := e.probeWrite(); err != nil {
			return ReadOnly, err
		}
		e.flushMu.Lock()
		err := e.recoverRotateLocked()
		e.flushMu.Unlock()
		if err != nil {
			return ReadOnly, err
		}
	case Degraded:
		rep, err := e.Verify()
		if err != nil {
			h, _ := e.health.get()
			return h, err
		}
		if len(rep.Quarantined) > 0 {
			h, cause := e.health.get()
			return h, cause
		}
	}
	empty, err := e.quarantineEmpty()
	if err != nil {
		h, _ := e.health.get()
		return h, err
	}
	if empty {
		e.recoverHealth(Healthy, nil)
	} else {
		e.recoverHealth(Degraded, fmt.Errorf("engine: quarantine not empty; Repair can salvage it"))
	}
	h, cause = e.health.get()
	return h, cause
}
