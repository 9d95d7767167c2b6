// Package engine is a durable, concurrent, LSM-style spatial storage
// engine keyed by curve index — the mutable counterpart of the write-once
// pagedstore. An engine has one writer at a time: a write batch is
// acknowledged after landing as one frame in a CRC-framed write-ahead log
// and in a curve-key-ordered skiplist memtable, under one lock that keeps
// log, sequence and memtable order the same. Concurrent synchronous callers
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

// wal is the engine's write-ahead log: a framedlog file with one frame
// per write batch, its payload the batch's EncodeBatch bytes. After any
// write or sync error the framedlog.Writer latches failed — frames
// appended after a torn region would be unreachable to recovery — so the
// engine surfaces the error and refuses further appends until a flush
// rotates in a fresh log.
//
// The caller serializes every method (the engine holds its WAL mutex so
// that log order equals sequence-number order).
type wal struct {
	*framedlog.Writer
	dims int
	enc  []byte // the last appended frame's payload, reused by every append
}

func createWAL(fsys vfs.FS, path string, dims int) (*wal, error) {
	w, err := framedlog.Create(fsys, path)
	if err != nil {
		return nil, walErr(err)
	}
	return &wal{Writer: w, dims: dims, enc: make([]byte, 0, walPayloadSize(dims, false))}, nil
}

// append frames and buffers one batch. Durability requires a later sync.
func (l *wal) append(ops []BatchOp) error {
	l.enc = EncodeBatch(l.enc[:0], ops, l.dims)
	return walErr(l.Append(l.enc))
}

// close syncs and closes the log: every previously acknowledged append
// is durable once it returns nil.
func (l *wal) close() error { return walErr(l.Close()) }

// replayWAL reads the ops of every intact frame (one batch, or one op in
// older logs) of the log at path, in order. A torn tail — a final frame
// cut short by a crash, any framing/CRC damage, or a payload DecodeBatch
// refuses — ends the replay silently: recovery keeps exactly the longest
// valid prefix of whole batches, so an acknowledged (synced) batch is
// never lost and a torn one never resurrects, not even in part.
func replayWAL(fsys vfs.FS, path string, dims int) ([]BatchOp, error) {
	var ops []BatchOp
	err := framedlog.Replay(fsys, path, func(payload []byte) bool {
		var err error
		ops, err = DecodeBatch(ops, payload, dims)
		return err == nil
	})
	return ops, walErr(err)
}
