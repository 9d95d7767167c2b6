package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/vfs"
)

// walOpsEqual compares two op slices structurally.
func walOpsEqual(a, b []BatchOp) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Del != b[i].Del || a[i].Payload != b[i].Payload || !a[i].Point.Equal(b[i].Point) {
			return false
		}
	}
	return true
}

func sampleOps(dims, n int) []BatchOp {
	ops := make([]BatchOp, n)
	for i := range ops {
		pt := make(geom.Point, dims)
		for d := range pt {
			pt[d] = uint32(i*7+d) % 16
		}
		if i%3 == 2 {
			ops[i] = BatchOp{Point: pt, Del: true}
		} else {
			ops[i] = BatchOp{Point: pt, Payload: uint64(i) * 1000003}
		}
	}
	return ops
}

func writeOps(t *testing.T, path string, dims int, ops []BatchOp) {
	t.Helper()
	w, err := createWAL(vfs.OS{}, path, dims)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range ops {
		if err := w.append(op); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		t.Fatal(err)
	}
}

// TestWALRoundTrip replays a cleanly closed log.
func TestWALRoundTrip(t *testing.T) {
	for _, dims := range []int{1, 2, 3, 5} {
		path := filepath.Join(t.TempDir(), "wal.log")
		ops := sampleOps(dims, 50)
		writeOps(t, path, dims, ops)
		got, err := replayWAL(vfs.OS{}, path, dims)
		if err != nil {
			t.Fatal(err)
		}
		if !walOpsEqual(got, ops) {
			t.Fatalf("dims %d: replay mismatch: %d ops vs %d", dims, len(got), len(ops))
		}
	}
}

// TestWALTornTail truncates the log at every byte boundary and asserts
// recovery keeps exactly the complete frames before the cut: acknowledged
// (synced) writes survive, the torn tail is dropped, nothing else.
func TestWALTornTail(t *testing.T) {
	dims := 2
	dir := t.TempDir()
	full := filepath.Join(dir, "wal.log")
	ops := sampleOps(dims, 9)
	writeOps(t, full, dims, ops)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries, for computing how many complete frames a cut keeps.
	bounds := []int{0}
	for _, op := range ops {
		bounds = append(bounds, bounds[len(bounds)-1]+8+walPayloadSize(dims, op.Del))
	}
	if bounds[len(bounds)-1] != len(data) {
		t.Fatalf("frame accounting: %d vs file %d", bounds[len(bounds)-1], len(data))
	}
	torn := filepath.Join(dir, "torn.log")
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := replayWAL(vfs.OS{}, torn, dims)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		complete := 0
		for complete < len(ops) && bounds[complete+1] <= cut {
			complete++
		}
		if !walOpsEqual(got, ops[:complete]) {
			t.Fatalf("cut %d: recovered %d ops, want the %d complete frames", cut, len(got), complete)
		}
	}
}

// TestWALCorruptTail flips a payload byte of the final frame: the CRC must
// reject it and recovery must stop at the preceding frame.
func TestWALCorruptTail(t *testing.T) {
	dims := 3
	path := filepath.Join(t.TempDir(), "wal.log")
	ops := sampleOps(dims, 5)
	writeOps(t, path, dims, ops)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := len(data) - walPayloadSize(dims, ops[4].Del)
	data[last] ^= 0x40 // corrupt inside the final payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := replayWAL(vfs.OS{}, path, dims)
	if err != nil {
		t.Fatal(err)
	}
	if !walOpsEqual(got, ops[:4]) {
		t.Fatalf("recovered %d ops after CRC damage, want 4", len(got))
	}
}

// TestWALGarbageLength rejects a frame announcing a nonsense length
// without reading past it.
func TestWALGarbageLength(t *testing.T) {
	dims := 2
	path := filepath.Join(t.TempDir(), "wal.log")
	ops := sampleOps(dims, 3)
	writeOps(t, path, dims, ops)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	bogus := make([]byte, 8)
	binary.LittleEndian.PutUint32(bogus, 1<<30)
	data = append(data, bogus...)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := replayWAL(vfs.OS{}, path, dims)
	if err != nil {
		t.Fatal(err)
	}
	if !walOpsEqual(got, ops) {
		t.Fatalf("recovered %d ops, want %d", len(got), len(ops))
	}
}

// goldenWAL is the file the framing before internal/framedlog produced
// for goldenOps (dims 2), byte for byte: four frames of
// len(4) | crc32c(4) | op(1) | coords(4*dims) | payload(8, puts only).
const goldenWAL = "11000000" + "29783641" + "01" + "03000000" + "05000000" + "8877665544332211" +
	"09000000" + "96745c9c" + "02" + "efbeadde" + "07000000" +
	"11000000" + "b67f0985" + "01" + "00000000" + "00000000" + "0000000000000000" +
	"11000000" + "e7a3d97e" + "01" + "01000000" + "ffffffff" + "2a00000000000000"

var goldenOps = []BatchOp{
	{Point: geom.Point{3, 5}, Payload: 0x1122334455667788},
	{Point: geom.Point{0xdeadbeef, 7}, Del: true},
	{Point: geom.Point{0, 0}, Payload: 0},
	{Point: geom.Point{1, 0xffffffff}, Payload: 42},
}

// TestWALGoldenBytes pins the on-disk format across the move to the
// shared framed log: the same op sequence produces the same file, and a
// WAL archived before the change still replays.
func TestWALGoldenBytes(t *testing.T) {
	want, err := hex.DecodeString(goldenWAL)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wal.log")
	writeOps(t, path, 2, goldenOps)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WAL bytes changed:\n got %x\nwant %x", got, want)
	}
	old := filepath.Join(t.TempDir(), "archived.log")
	if err := os.WriteFile(old, want, 0o644); err != nil {
		t.Fatal(err)
	}
	ops, err := replayWAL(vfs.OS{}, old, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !walOpsEqual(ops, goldenOps) {
		t.Fatalf("archived WAL replayed as %+v", ops)
	}
}
