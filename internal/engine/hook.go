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

// ErrRetiredOp reports a logged op in the coordinate-tagged encoding (tags
// 1 and 2) of releases before ops carried their key. It names a point,
// and nothing evaluates the curve to read it any more.
var ErrRetiredOp = errors.New("engine: coordinate-tagged op of a retired log format")

const (
	// Tags 1 and 2, the coordinate-tagged put and delete, are retired:
	// DecodeBatch recognizes them only to refuse them.
	retiredPut, retiredDel = byte(1), byte(2)
	// Key-tagged ops: the tag, the 8-byte curve key, and for puts the
	// 8-byte payload.
	walKeyPut, walKeyDel = byte(3), byte(4)
)

// opSize returns the encoded length of an op whose tag is t, or 0 for a
// tag DecodeBatch refuses.
func opSize(t byte) int {
	switch t {
	case walKeyPut:
		return 1 + 8 + 8
	case walKeyDel:
		return 1 + 8
	}
	return 0
}

// EncodeBatch appends the encoding of ops to dst and returns the
// extended slice: per op a key tag, the 8-byte little-endian key, and for
// puts the 8-byte payload, back to back. It is the store's only op codec:
// a WAL frame's payload is one batch's encoding, and a replication entry
// carries the same bytes, so both are decoded by DecodeBatch.
func EncodeBatch(dst []byte, ops []BatchOp) []byte {
	for _, op := range ops {
		tag := walKeyPut
		if op.Del {
			tag = walKeyDel
		}
		dst = binary.LittleEndian.AppendUint64(append(dst, tag), op.Key)
		if !op.Del {
			dst = binary.LittleEndian.AppendUint64(dst, op.Payload)
		}
	}
	return dst
}

// BatchLen returns how many ops the batch encoding b holds. It only steps
// over op sizes and validates nothing (DecodeBatch does): an unknown tag
// or a short op counts as one op that takes the rest.
func BatchLen(b []byte) int {
	n := 0
	for ; len(b) > 0; n++ {
		if size := opSize(b[0]); size > 0 && size <= len(b) {
			b = b[size:]
		} else {
			b = nil
		}
	}
	return n
}

// DecodeBatch appends the ops of one batch encoding to dst, for a key
// space of keys keys. It rejects a retired coordinate tag (ErrRetiredOp),
// an unknown tag, an op cut short and a key at or past keys, each
// wrapping ErrWAL, and then returns dst unextended. Past dst's growth it
// allocates nothing. Integrity is the carrier's job (the framed log's
// CRC, the transport).
func DecodeBatch(dst []BatchOp, b []byte, keys uint64) ([]BatchOp, error) {
	n := len(dst)
	for len(b) > 0 {
		if b[0] == retiredPut || b[0] == retiredDel {
			return dst[:n], fmt.Errorf("%w: %w (tag %d)", ErrWAL, ErrRetiredOp, b[0])
		}
		size := opSize(b[0])
		if size == 0 || len(b) < size {
			return dst[:n], fmt.Errorf("%w: malformed op payload (%d bytes left)", ErrWAL, len(b))
		}
		op := BatchOp{Key: binary.LittleEndian.Uint64(b[1:]), Del: b[0] == walKeyDel}
		if op.Key >= keys {
			return dst[:n], fmt.Errorf("%w: key %d outside key space [0,%d)", ErrWAL, op.Key, keys)
		}
		if !op.Del {
			op.Payload = binary.LittleEndian.Uint64(b[9:])
		}
		dst = append(dst, op)
		b = b[size:]
	}
	return dst, nil
}
