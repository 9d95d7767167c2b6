// Package engine is a durable, concurrent, LSM-style spatial storage
// engine keyed by curve index — the mutable counterpart of the write-once
// pagedstore. Writes are acknowledged after landing in a CRC-framed
// write-ahead log and a curve-key-ordered memtable sharded across
// GOMAXPROCS by an internal/partition partitioner; memtables flush into
// immutable curve-ordered segment files that are pagedstore files
// (tombstones ride in the mark bitmap); size-tiered
// background compaction merges segments and garbage-collects tombstones.
//
// A rectangle query consults the curve's range planner exactly once, then
// streams a k-way merge of the memtable and every live segment over each
// cluster range, counting seeks and pages exactly as pagedstore.Stats
// does: the paper's clustering number remains the number of positioned
// reads the query pays, now on a store that absorbs writes while serving.
package engine

import (
	"errors"
	"fmt"
	"sync"

	"github.com/onioncurve/onion/internal/framedlog"
	"github.com/onioncurve/onion/internal/vfs"
)

// ErrWAL reports an unusable write-ahead log file (I/O failure — torn
// tails are not errors, they are truncated away by recovery).
var ErrWAL = errors.New("engine: write-ahead log failure")

// walErr marks a log I/O error as ErrWAL (nil stays nil).
func walErr(err error) error {
	if err == nil {
		return nil
	}
	return fmt.Errorf("%w: %w", ErrWAL, err)
}

// wal is the engine's write-ahead log: a framedlog file whose frame
// payloads are EncodeOp encodings, plus the group-commit rendezvous.
// After any write or sync error the framedlog.Writer latches failed —
// frames appended after a torn region would be unreachable to recovery —
// so the engine surfaces the error and refuses further appends until a
// flush rotates in a fresh log.
//
// The caller serializes append/Flush/Sync/close (the engine holds its WAL
// mutex so that log order equals sequence-number order).
type wal struct {
	*framedlog.Writer
	dims int
	enc  []byte // EncodeOp scratch, reused by every append
	gc   groupState
}

// groupState is the log's group-commit rendezvous: concurrent SyncWrites
// callers publish the byte position their frame ends at, one of them
// becomes the leader and performs a single buffered flush + fsync
// covering every frame appended so far, and the rest wait for the
// durable watermark to pass their position. While a leader's fsync is in
// flight, later callers pile up behind the syncing flag, so the next
// fsync amortizes over the whole pile — one disk barrier per batch
// instead of one per write.
type groupState struct {
	mu           sync.Mutex
	wake         sync.Cond
	synced       int64 // bytes of the log durably synced
	syncedFrames int64 // frames covered by fsyncs so far (batch-size telemetry)
	syncing      bool  // a leader's flush+fsync is in flight
	err          error // sticky: a failed group sync poisons the log until rotation
}

func createWAL(fsys vfs.FS, path string, dims int) (*wal, error) {
	w, err := framedlog.Create(fsys, path)
	if err != nil {
		return nil, walErr(err)
	}
	l := &wal{Writer: w, dims: dims, enc: make([]byte, 0, walPayloadSize(dims, false))}
	l.gc.wake.L = &l.gc.mu
	return l, nil
}

// append frames and buffers one op. Durability requires a later sync.
func (l *wal) append(op BatchOp) error {
	l.enc = EncodeOp(l.enc[:0], op, l.dims)
	return walErr(l.Append(l.enc))
}

// close syncs and closes the log: every previously acknowledged append
// is durable once it returns nil.
func (l *wal) close() error { return walErr(l.Close()) }

// replayWAL reads every intact frame of the log at path, in order. A torn
// tail — a final frame cut short by a crash, any framing/CRC damage, or
// a payload DecodeOp rejects — ends the replay silently: recovery keeps
// exactly the longest valid prefix and drops the rest, so an acknowledged
// (synced) write is never lost and an unacknowledged torn write is never
// resurrected partially.
func replayWAL(fsys vfs.FS, path string, dims int) ([]BatchOp, error) {
	var ops []BatchOp
	err := framedlog.Replay(fsys, path, func(payload []byte) bool {
		op, err := DecodeOp(payload, dims)
		if err == nil {
			ops = append(ops, op)
		}
		return err == nil
	})
	return ops, walErr(err)
}
