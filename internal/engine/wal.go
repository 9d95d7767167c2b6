// Package engine is a durable, concurrent, LSM-style spatial storage
// engine keyed by curve index — the mutable counterpart of the write-once
// pagedstore. An engine has one writer at a time: a write batch is
// acknowledged after landing in a CRC-framed write-ahead log and a
// curve-key-ordered skiplist memtable, under one lock that keeps log,
// sequence and memtable order the same. Concurrent synchronous callers
// serialize on that lock, each batch paying its own fsync; durable
// batching across producers is the ingest pipeline's job. Memtables
// flush into immutable curve-ordered segment files that are pagedstore
// files (tombstones ride in the mark bitmap); size-tiered background
// compaction merges segments and garbage-collects tombstones.
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
// payloads are EncodeOp encodings. After any write or sync error the
// framedlog.Writer latches failed — frames appended after a torn region
// would be unreachable to recovery — so the engine surfaces the error and
// refuses further appends until a flush rotates in a fresh log.
//
// The caller serializes every method (the engine holds its WAL mutex so
// that log order equals sequence-number order).
type wal struct {
	*framedlog.Writer
	dims int
	enc  []byte // EncodeOp scratch, reused by every append
}

func createWAL(fsys vfs.FS, path string, dims int) (*wal, error) {
	w, err := framedlog.Create(fsys, path)
	if err != nil {
		return nil, walErr(err)
	}
	return &wal{Writer: w, dims: dims, enc: make([]byte, 0, walPayloadSize(dims, false))}, nil
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
