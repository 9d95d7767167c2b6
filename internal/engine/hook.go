package engine

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/onioncurve/onion/internal/geom"
)

// ErrQuorum reports a synchronous write that became durable locally but
// could not reach a quorum of replicas before the commit hook gave up.
// Like ErrWAL it takes the engine out of write service: the engine
// degrades to ReadOnly (the error chain carries both sentinels) and
// writes fail fast until a guarded recovery — for a replicated engine,
// the replication layer's TryRecover once peers return — rotates the
// log.
var ErrQuorum = errors.New("engine: replication quorum lost")

// CommitHook observes the engine's durable write path — the seam a
// replication layer hangs off. The contract mirrors the WAL itself:
//
//   - Append is invoked under the engine's WAL mutex, once per framed
//     op, in sequence order — exactly the order the frames occupy in the
//     log. The op's Point aliases the caller's buffer; a hook that
//     retains it must clone. Append must not block on I/O or call back
//     into the engine: it runs on the write hot path.
//
//   - Commit is invoked by PutBatch after the batch's fsync, still under
//     the WAL mutex, with the batch's last sequence number, and blocks
//     the acknowledgement of the batch — and every later write — until
//     it returns. A replication hook returns nil once every appended op
//     with seq <= the argument is durable on a quorum, making a
//     synchronous ack mean "fsynced on a majority" — one local fsync and
//     one quorum round-trip per batch. Returning an error
//     (conventionally wrapping ErrQuorum) fails the batch as a failed
//     fsync does: the engine turns ReadOnly before the next writer gets
//     the WAL mutex, and recovery requires a log rotation. Commit must
//     not call back into the engine's write path.
//
// Commit only runs on the SyncWrites path; an engine without SyncWrites
// never calls it, so replication requires synchronous writes.
type CommitHook interface {
	Append(seq uint64, op BatchOp)
	Commit(seq uint64) error
}

// PreCommitHook is an optional CommitHook extension. When the hook
// implements it, PutBatch invokes PreCommit (under the WAL mutex) after
// the batch's frames are flushed to the OS buffer but before its fsync,
// with the same sequence target the following Commit will carry. A
// replication hook uses the window to start shipping the batch, so the
// followers' log fsyncs run concurrently with the leader's own instead
// of being chained after it — the quorum round then costs roughly the
// slower of the two barriers, not their sum. PreCommit must not block
// on the quorum outcome (Commit does that) and must tolerate the batch
// subsequently failing the local fsync: nothing shipped ahead of
// durability is acknowledged until Commit succeeds.
type PreCommitHook interface {
	PreCommit(seq uint64)
}

const (
	walOpPut = byte(1)
	walOpDel = byte(2)
)

// walPayloadSize returns the EncodeOp length of an op: op byte, coords,
// and (for puts) the 8-byte payload.
func walPayloadSize(dims int, del bool) int {
	if del {
		return 1 + 4*dims
	}
	return 1 + 4*dims + 8
}

// EncodeOp appends the WAL payload encoding of op to dst and returns the
// extended slice: op byte, 4*dims little-endian coords, and the 8-byte
// payload for puts. It is the store's only op codec: the engine frames
// exactly these bytes into its own log, and a replication stream carries
// them, so both are decoded by DecodeOp.
func EncodeOp(dst []byte, op BatchOp, dims int) []byte {
	if op.Del {
		dst = append(dst, walOpDel)
	} else {
		dst = append(dst, walOpPut)
	}
	for d := 0; d < dims; d++ {
		dst = binary.LittleEndian.AppendUint32(dst, op.Point[d])
	}
	if !op.Del {
		dst = binary.LittleEndian.AppendUint64(dst, op.Payload)
	}
	return dst
}

// DecodeOp parses one EncodeOp payload, rejecting an unknown op byte or
// a length that disagrees with it. Integrity is the carrier's job (the
// framed log's CRC, the transport).
func DecodeOp(b []byte, dims int) (BatchOp, error) {
	if len(b) == 0 || (b[0] != walOpPut && b[0] != walOpDel) || len(b) != walPayloadSize(dims, b[0] == walOpDel) {
		return BatchOp{}, fmt.Errorf("%w: malformed op payload (%d bytes)", ErrWAL, len(b))
	}
	op := BatchOp{Point: make(geom.Point, dims), Del: b[0] == walOpDel}
	for d := range op.Point {
		op.Point[d] = binary.LittleEndian.Uint32(b[1+4*d:])
	}
	if !op.Del {
		op.Payload = binary.LittleEndian.Uint64(b[1+4*dims:])
	}
	return op, nil
}
