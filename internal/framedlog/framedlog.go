// Package framedlog is the store's one append-only, CRC-framed log
// format; the engine write-ahead log and the follower replication log
// are this file layout with different payload codecs on top:
//
//	frame := length(uint32 LE) | crc32c(uint32 LE, over payload) | payload
//
// One torn-tail rule: Replay keeps the longest prefix of frames whose
// length, checksum and (caller-judged) payload are valid, so a frame made
// durable by Sync always survives and a torn one never resurrects. One
// failure rule: after a failed write or fsync the file's tail is
// unknowable and frames behind a torn region would be unreachable to
// Replay, so the Writer latches failed until its owner replaces the file.
package framedlog

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"

	"github.com/onioncurve/onion/internal/vfs"
)

const (
	headerBytes = 8
	// bufferBytes bounds the frames a Writer holds back before it writes
	// them out on its own: large enough that a write batch or a
	// replication append request reaches the file in one write call.
	bufferBytes = 64 << 10
)

var (
	crcTable = crc32.MakeTable(crc32.Castagnoli)

	errClosed = errors.New("framedlog: closed")
	errEmpty  = errors.New("framedlog: empty payload")
)

// Writer appends frames to one file. The caller serializes every method
// except Fsync.
type Writer struct {
	f   vfs.File
	buf []byte // whole frames not yet written to f
	n   int64  // bytes appended, buffered ones included
	err error  // sticky: first write/sync failure, or errClosed
}

// Create creates (or truncates) the log file at path.
func Create(fsys vfs.FS, path string) (*Writer, error) {
	f, err := fsys.Create(path)
	if err != nil {
		return nil, err
	}
	return &Writer{f: f, buf: make([]byte, 0, 4096)}, nil
}

// Append frames and buffers one non-empty payload. Durability requires a
// later Sync.
func (w *Writer) Append(payload []byte) error {
	if w.err != nil {
		return fmt.Errorf("framedlog: log failed earlier: %w", w.err)
	}
	if len(payload) == 0 {
		return errEmpty // Replay reads a zero length as tail damage
	}
	if len(w.buf)+headerBytes+len(payload) > bufferBytes {
		if err := w.Flush(); err != nil {
			return err
		}
	}
	w.buf = binary.LittleEndian.AppendUint32(w.buf, uint32(len(payload)))
	w.buf = binary.LittleEndian.AppendUint32(w.buf, crc32.Checksum(payload, crcTable))
	w.buf = append(w.buf, payload...)
	w.n += int64(headerBytes + len(payload))
	return nil
}

// Flush writes the buffered frames to the file (one write call).
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.f.Write(w.buf)
	w.buf = w.buf[:0]
	w.Fail(err)
	return err
}

// Fsync fsyncs the file without flushing the buffer and without touching
// the Writer's state, so its owner can act between Flush and the disk
// barrier (the engine starts shipping a replicated batch there). On
// error the caller must call Fail.
func (w *Writer) Fsync() error { return w.f.Sync() }

// Fail latches err (if non-nil and the first) as the Writer's failure.
func (w *Writer) Fail(err error) {
	if err != nil && w.err == nil {
		w.err = err
	}
}

// Err returns the latched failure, nil while the Writer is usable.
func (w *Writer) Err() error { return w.err }

// Sync makes every appended frame durable.
func (w *Writer) Sync() error {
	if err := w.Flush(); err != nil {
		return err
	}
	err := w.Fsync()
	w.Fail(err)
	return err
}

// Close syncs and closes the file. A failed Writer closes the file and
// returns the latched failure; a second Close is a no-op.
func (w *Writer) Close() error {
	if w.err == errClosed {
		return nil
	}
	err := w.Sync()
	if cerr := w.f.Close(); err == nil {
		err = cerr
	}
	w.err = errClosed
	return err
}

// Abandon closes the file without writing the buffered frames or
// syncing — for a log its owner has replaced or condemned.
func (w *Writer) Abandon() {
	w.Fail(errClosed)
	w.f.Close() //nolint:errcheck // nothing in the file is relied on any more
}

// Bytes is the log's length in bytes, buffered frames included.
func (w *Writer) Bytes() int64 { return w.n }

// Replay calls fn with the payload of every frame of the log at path, in
// order, until the file ends, a frame fails its length or checksum, or
// fn returns false (the caller's codec rejects the payload) — all three
// are tail damage, not errors: the frames before are the log. Each
// payload aliases one buffer Replay reads the whole file into, fresh for
// every call and never written to again: the caller owns it after the
// call and may keep payloads without copying them.
func Replay(fsys vfs.FS, path string, fn func(payload []byte) bool) error {
	data, err := vfs.ReadFile(fsys, path)
	if err != nil {
		return err
	}
	ReplayBytes(data, fn)
	return nil
}

// ReplayBytes is Replay over a log's content already read into data;
// each payload aliases data.
func ReplayBytes(data []byte, fn func(payload []byte) bool) {
	for len(data) >= headerBytes {
		pl := int(binary.LittleEndian.Uint32(data))
		if pl == 0 || pl > len(data)-headerBytes {
			break // garbage length or torn payload
		}
		payload := data[headerBytes : headerBytes+pl]
		if crc32.Checksum(payload, crcTable) != binary.LittleEndian.Uint32(data[4:]) || !fn(payload) {
			break
		}
		data = data[headerBytes+pl:]
	}
}

// Frames counts the frames of data whose length fits, without checking
// a checksum: a bound on the payloads ReplayBytes yields, cheap enough
// to size a slice for them before replaying.
func Frames(data []byte) int {
	n := 0
	for len(data) >= headerBytes {
		pl := int(binary.LittleEndian.Uint32(data))
		if pl == 0 || pl > len(data)-headerBytes {
			break
		}
		n++
		data = data[headerBytes+pl:]
	}
	return n
}
