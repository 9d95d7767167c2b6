package engine

import (
	"encoding/binary"
	"errors"
	"fmt"
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
// replication layer hangs off. The unit is the write batch, as in the
// WAL itself. An engine opened with a CommitHook always writes
// synchronously: Open forces Options.SyncWrites on, since a quorum ack
// only means something on top of a local fsync. The contract:
//
//   - Append is invoked once per PutBatch, under the engine's WAL mutex
//     and in sequence order, after the batch's frame is flushed to the
//     OS buffer and before its fsync. It carries the batch's last
//     sequence number and the frame's payload — the batch's EncodeBatch
//     bytes, which DecodeBatch turns back into the ops. The bytes alias
//     engine scratch that the next batch overwrites; a hook that
//     retains them must copy. Append must not block on the quorum
//     outcome or call back into the engine. It may start shipping the
//     batch, so that the replicas' barriers overlap the engine's own
//     fsync, and must then tolerate the batch failing that fsync:
//     nothing shipped is acknowledged until Commit succeeds.
//
//   - Commit is invoked after the batch's fsync, still under the WAL
//     mutex, with the same sequence number, and blocks the
//     acknowledgement of the batch — and every later write — until it
//     returns. A replication hook returns nil once every appended batch
//     with seq <= the argument is durable on a quorum, making a
//     synchronous ack mean "fsynced on a majority" — one local fsync and
//     one quorum round-trip per batch. Returning an error
//     (conventionally wrapping ErrQuorum) fails the batch as a failed
//     fsync does: the engine turns ReadOnly before the next writer gets
//     the WAL mutex, and recovery requires a log rotation. Commit must
//     not call back into the engine's write path.
type CommitHook interface {
	Append(seq uint64, batch []byte)
	Commit(seq uint64) error
}

const (
	walOpPut = byte(1)
	walOpDel = byte(2)
)

// walPayloadSize returns the encoded length of one op: op byte, coords,
// and (for puts) the 8-byte payload.
func walPayloadSize(dims int, del bool) int {
	if del {
		return 1 + 4*dims
	}
	return 1 + 4*dims + 8
}

// EncodeBatch appends the encoding of ops to dst and returns the
// extended slice. Each op is an op byte, 4*dims little-endian coords,
// and for puts the 8-byte payload, back to back. It is the store's only
// op codec: a WAL frame's payload is one batch's encoding, and a
// replication entry carries the same bytes, so both are decoded by
// DecodeBatch.
func EncodeBatch(dst []byte, ops []BatchOp, dims int) []byte {
	for _, op := range ops {
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
	}
	return dst
}

// BatchLen returns how many ops the EncodeBatch bytes b hold. It only
// steps over op sizes and validates nothing: DecodeBatch does.
func BatchLen(b []byte, dims int) int {
	n := 0
	for ; len(b) > 0; n++ {
		b = b[min(walPayloadSize(dims, b[0] == walOpDel), len(b)):]
	}
	return n
}

// DecodeBatch appends the ops of one EncodeBatch encoding to dst. It
// rejects an unknown op byte or an op cut short, and then returns dst
// unextended. The decoded Points share one allocation. Integrity is the
// carrier's job (the framed log's CRC, the transport).
func DecodeBatch(dst []BatchOp, b []byte, dims int) ([]BatchOp, error) {
	n := len(dst)
	coords := make([]uint32, BatchLen(b, dims)*dims)
	for len(b) > 0 {
		if (b[0] != walOpPut && b[0] != walOpDel) || len(b) < walPayloadSize(dims, b[0] == walOpDel) {
			return dst[:n], fmt.Errorf("%w: malformed op payload (%d bytes left)", ErrWAL, len(b))
		}
		op := BatchOp{Point: coords[:dims:dims], Del: b[0] == walOpDel}
		coords = coords[dims:]
		for d := range op.Point {
			op.Point[d] = binary.LittleEndian.Uint32(b[1+4*d:])
		}
		if !op.Del {
			op.Payload = binary.LittleEndian.Uint64(b[1+4*dims:])
		}
		dst = append(dst, op)
		b = b[walPayloadSize(dims, op.Del):]
	}
	return dst, nil
}
