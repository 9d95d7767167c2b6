package engine

import (
	"os"
	"path/filepath"
	"testing"

	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/vfs"
)

// FuzzWALReplay drives the WAL through a fuzzed stream of batches and a
// fuzzed truncation point: the round trip must be exact, and recovery of
// any prefix of the file must yield exactly the ops of the batches whose
// frames are complete — the torn-tail contract, explored byte by byte by
// the fuzzer.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint16(7))
	f.Add([]byte{0xff, 0x00, 0xaa}, uint16(0))
	f.Add([]byte{}, uint16(100))
	// A three-op batch with a delete in the middle, then a one-op batch.
	f.Add([]byte{1, 2, 0x01, 3, 4, 0x04, 5, 6, 0x41, 7, 8, 0x42}, uint16(40))
	f.Fuzz(func(t *testing.T, raw []byte, cutSeed uint16) {
		const dims = 2
		// Decode a deterministic op stream out of the raw bytes; bit 0x40
		// of an op's third byte ends its batch.
		var ops []BatchOp
		var batches [][]BatchOp
		start := 0
		for i := 0; i+2 < len(raw) && len(ops) < 64; i += 3 {
			pt := geom.Point{uint32(raw[i]), uint32(raw[i+1])}
			if raw[i+2]%4 == 0 {
				ops = append(ops, BatchOp{Point: pt, Del: true})
			} else {
				ops = append(ops, BatchOp{Point: pt, Payload: uint64(raw[i+2]) << 3})
			}
			if raw[i+2]&0x40 != 0 {
				batches = append(batches, ops[start:])
				start = len(ops)
			}
		}
		if start < len(ops) {
			batches = append(batches, ops[start:])
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "wal.log")
		w, err := createWAL(vfs.OS{}, path, dims)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range batches {
			if err := w.append(b); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		got, err := replayWAL(vfs.OS{}, path, dims)
		if err != nil {
			t.Fatal(err)
		}
		if !walOpsEqual(got, ops) {
			t.Fatalf("round trip: %d ops back, wrote %d", len(got), len(ops))
		}
		// Truncate at a fuzzed point and demand whole-batch prefix recovery.
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) == 0 {
			return
		}
		cut := int(cutSeed) % (len(data) + 1)
		if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		torn, err := replayWAL(vfs.OS{}, path, dims)
		if err != nil {
			t.Fatal(err)
		}
		complete, off := 0, 0
		for _, b := range batches {
			off += 8
			for _, op := range b {
				off += walPayloadSize(dims, op.Del)
			}
			if off > cut {
				break
			}
			complete += len(b)
		}
		if !walOpsEqual(torn, ops[:complete]) {
			t.Fatalf("cut %d: recovered %d ops, want %d", cut, len(torn), complete)
		}
	})
}
