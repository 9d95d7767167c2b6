package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"maps"
	"os"
	"path/filepath"
	"testing"

	"github.com/onioncurve/onion/internal/core"
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

// writeOps writes ops as one-op batches: one frame per op, the layout
// every log had before a frame carried a whole batch.
func writeOps(t *testing.T, path string, dims int, ops []BatchOp) {
	t.Helper()
	w, err := createWAL(vfs.OS{}, path, dims)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ops {
		if err := w.append(ops[i : i+1]); err != nil {
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

// TestWALTornBatchIsAbsent crashes an engine with its log cut inside a
// multi-op batch frame, at every byte: after reopen the whole batch is
// absent — none of its ops takes effect, the delete in its middle
// included — and the batch before it is intact.
func TestWALTornBatchIsAbsent(t *testing.T) {
	c, err := core.NewOnion2D(16)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	opts := manualOpts()
	opts.SyncWrites = true
	e, err := Open(dir, c, opts)
	if err != nil {
		t.Fatal(err)
	}
	first := []BatchOp{
		{Point: geom.Point{1, 1}, Payload: 11},
		{Point: geom.Point{2, 2}, Payload: 22},
		{Point: geom.Point{3, 3}, Payload: 33},
	}
	second := []BatchOp{
		{Point: geom.Point{4, 4}, Payload: 44},
		{Point: geom.Point{1, 1}, Del: true},
		{Point: geom.Point{2, 2}, Payload: 99},
		{Point: geom.Point{5, 5}, Payload: 55},
	}
	for _, b := range [][]BatchOp{first, second} {
		if err := e.PutBatch(b); err != nil {
			t.Fatal(err)
		}
	}
	crash := t.TempDir()
	copyDir(t, dir, crash)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	wals, err := filepath.Glob(filepath.Join(crash, "wal-*.log"))
	if err != nil || len(wals) != 1 {
		t.Fatalf("wals %v err %v", wals, err)
	}
	data, err := os.ReadFile(wals[0])
	if err != nil {
		t.Fatal(err)
	}
	frame := func(ops []BatchOp) int {
		n := 8
		for _, op := range ops {
			n += walPayloadSize(2, op.Del)
		}
		return n
	}
	cutAt := frame(first)
	if cutAt+frame(second) != len(data) {
		t.Fatalf("log is %d bytes, want one frame per batch (%d + %d)", len(data), cutAt, frame(second))
	}
	state := func(cut int) map[uint64]uint64 {
		d := t.TempDir()
		copyDir(t, crash, d)
		if err := os.WriteFile(filepath.Join(d, filepath.Base(wals[0])), data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		re, err := Open(d, c, opts)
		if err != nil {
			t.Fatal(err)
		}
		defer re.Close()
		got, _, err := re.Query(c.Universe().Rect())
		if err != nil {
			t.Fatal(err)
		}
		m := make(map[uint64]uint64, len(got))
		for _, rec := range got {
			m[c.Index(rec.Point)] = rec.Payload
		}
		return m
	}
	at := func(x, y uint32) uint64 { return c.Index(geom.Point{x, y}) }
	firstOnly := map[uint64]uint64{at(1, 1): 11, at(2, 2): 22, at(3, 3): 33}
	for cut := cutAt; cut < len(data); cut++ {
		if got := state(cut); !maps.Equal(got, firstOnly) {
			t.Fatalf("cut %d bytes into the second batch: recovered %v, want %v", cut-cutAt, got, firstOnly)
		}
	}
	both := map[uint64]uint64{at(2, 2): 99, at(3, 3): 33, at(4, 4): 44, at(5, 5): 55}
	if got := state(len(data)); !maps.Equal(got, both) {
		t.Fatalf("whole log: recovered %v, want %v", got, both)
	}
}
