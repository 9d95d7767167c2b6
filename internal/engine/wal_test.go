package engine

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/onioncurve/onion/internal/baseline"
	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/vfs"
)

// walCurve is a curve over dims-dimensional points of side 16, for the
// log tests that run in several dimensions.
func walCurve(t testing.TB, dims int) curve.Curve {
	c, err := baseline.NewRowMajor(dims, 16)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func sampleOps(c curve.Curve, n int) []BatchOp {
	ops := make([]BatchOp, n)
	for i := range ops {
		pt := make(geom.Point, c.Universe().Dims())
		for d := range pt {
			pt[d] = uint32(i*7+d) % 16
		}
		if i%3 == 2 {
			ops[i] = BatchOp{Key: c.Index(pt), Del: true}
		} else {
			ops[i] = BatchOp{Key: c.Index(pt), Payload: uint64(i) * 1000003}
		}
	}
	return ops
}

// keyOpSize is the encoded length of a key-tagged op.
func keyOpSize(del bool) int {
	if del {
		return opSize(walKeyDel)
	}
	return opSize(walKeyPut)
}

// writeOps writes ops as one-op batches: one frame per op, the layout
// every log had before a frame carried a whole batch.
func writeOps(t *testing.T, path string, ops []BatchOp) {
	t.Helper()
	w, err := createWAL(vfs.OS{}, path)
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
		c := walCurve(t, dims)
		path := filepath.Join(t.TempDir(), "wal.log")
		ops := sampleOps(c, 50)
		writeOps(t, path, ops)
		got, err := replayWAL(vfs.OS{}, path, c.Universe().Size())
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(got, ops) {
			t.Fatalf("dims %d: replay mismatch: %d ops vs %d", dims, len(got), len(ops))
		}
	}
}

// TestWALTornTail truncates the log at every byte boundary and asserts
// recovery keeps exactly the complete frames before the cut: acknowledged
// (synced) writes survive, the torn tail is dropped, nothing else.
func TestWALTornTail(t *testing.T) {
	c := walCurve(t, 2)
	dir := t.TempDir()
	full := filepath.Join(dir, "wal.log")
	ops := sampleOps(c, 9)
	writeOps(t, full, ops)
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Frame boundaries, for computing how many complete frames a cut keeps.
	bounds := []int{0}
	for _, op := range ops {
		bounds = append(bounds, bounds[len(bounds)-1]+8+keyOpSize(op.Del))
	}
	if bounds[len(bounds)-1] != len(data) {
		t.Fatalf("frame accounting: %d vs file %d", bounds[len(bounds)-1], len(data))
	}
	torn := filepath.Join(dir, "torn.log")
	for cut := 0; cut <= len(data); cut++ {
		if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := replayWAL(vfs.OS{}, torn, c.Universe().Size())
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		complete := 0
		for complete < len(ops) && bounds[complete+1] <= cut {
			complete++
		}
		if !slices.Equal(got, ops[:complete]) {
			t.Fatalf("cut %d: recovered %d ops, want the %d complete frames", cut, len(got), complete)
		}
	}
}

// TestWALCorruptTail flips a payload byte of the final frame: the CRC must
// reject it and recovery must stop at the preceding frame.
func TestWALCorruptTail(t *testing.T) {
	c := walCurve(t, 3)
	path := filepath.Join(t.TempDir(), "wal.log")
	ops := sampleOps(c, 5)
	writeOps(t, path, ops)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	last := len(data) - keyOpSize(ops[4].Del)
	data[last] ^= 0x40 // corrupt inside the final payload
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := replayWAL(vfs.OS{}, path, c.Universe().Size())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, ops[:4]) {
		t.Fatalf("recovered %d ops after CRC damage, want 4", len(got))
	}
}

// TestWALGarbageLength rejects a frame announcing a nonsense length
// without reading past it.
func TestWALGarbageLength(t *testing.T) {
	c := walCurve(t, 2)
	path := filepath.Join(t.TempDir(), "wal.log")
	ops := sampleOps(c, 3)
	writeOps(t, path, ops)
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
	got, err := replayWAL(vfs.OS{}, path, c.Universe().Size())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got, ops) {
		t.Fatalf("recovered %d ops, want %d", len(got), len(ops))
	}
}

// goldenKeyWAL is the file the writer produces for goldenKeyOps, byte for
// byte: four frames of len(4) | crc32c(4) | tag(1) | key(8) | payload(8,
// puts only), tag 3 a put and 4 a delete.
const goldenKeyWAL = "11000000" + "f9e52694" + "03" + "7856341200000000" + "8877665544332211" +
	"09000000" + "156352d4" + "04" + "f0debc0a00000000" +
	"11000000" + "08c7c03a" + "03" + "0000000000000000" + "0000000000000000" +
	"11000000" + "04a6e84e" + "03" + "ffffff3f00000000" + "2a00000000000000"

var goldenKeyOps = []BatchOp{
	{Key: 0x12345678, Payload: 0x1122334455667788},
	{Key: 0x0abcdef0, Del: true},
	{Key: 0, Payload: 0},
	{Key: 1<<30 - 1, Payload: 42},
}

// retiredWAL is a log an older release wrote: two frames of
// len(4) | crc32c(4) | op, each op a coordinate tag (1 a put, 2 a
// delete), the cell's two coordinates and, for puts, the payload. Both
// CRCs hold.
const retiredWAL = "11000000" + "29783641" + "01" + "03000000" + "05000000" + "8877665544332211" +
	"09000000" + "96745c9c" + "02" + "efbeadde" + "07000000"

// TestWALGoldenBytes pins the log format. The writer turns goldenKeyOps
// into goldenKeyWAL's bytes, which replay to the same ops. A log in the
// retired coordinate encoding is refused whole (ErrRetiredOp), not read
// as a torn tail, even behind a valid key-tagged frame.
func TestWALGoldenBytes(t *testing.T) {
	c, err := core.NewOnion2D(1 << 15)
	if err != nil {
		t.Fatal(err)
	}
	want, err := hex.DecodeString(goldenKeyWAL)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "wal.log")
	writeOps(t, path, goldenKeyOps)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("WAL bytes changed:\n got %x\nwant %x", got, want)
	}
	ops, err := replayWAL(vfs.OS{}, path, c.Universe().Size())
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ops, goldenKeyOps) {
		t.Fatalf("WAL replayed as %+v", ops)
	}

	old, err := hex.DecodeString(retiredWAL)
	if err != nil {
		t.Fatal(err)
	}
	for name, log := range map[string][]byte{"retired": old, "key-tagged then retired": slices.Concat(want, old)} {
		archived := filepath.Join(t.TempDir(), "archived.log")
		if err := os.WriteFile(archived, log, 0o644); err != nil {
			t.Fatal(err)
		}
		if ops, err := replayWAL(vfs.OS{}, archived, c.Universe().Size()); !errors.Is(err, ErrRetiredOp) || !errors.Is(err, ErrWAL) || ops != nil {
			t.Fatalf("%s log replayed as %+v, %v; want ErrWAL wrapping ErrRetiredOp", name, ops, err)
		}
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
	at := func(x, y uint32) uint64 { return c.Index(geom.Point{x, y}) }
	first := []BatchOp{
		{Key: at(1, 1), Payload: 11},
		{Key: at(2, 2), Payload: 22},
		{Key: at(3, 3), Payload: 33},
	}
	second := []BatchOp{
		{Key: at(4, 4), Payload: 44},
		{Key: at(1, 1), Del: true},
		{Key: at(2, 2), Payload: 99},
		{Key: at(5, 5), Payload: 55},
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
			n += keyOpSize(op.Del)
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

// TestDecodeBatchRejects: DecodeBatch reads bytes that may come off a
// damaged disk or a peer, so it must never panic on them. A retired
// coordinate tag is refused as such (ErrRetiredOp); an unknown tag, an op
// cut short and a key outside the key space are malformed. Each is
// ErrWAL, and dst comes back unextended.
func TestDecodeBatchRejects(t *testing.T) {
	const keys = 256
	key := func(tag byte, k uint64) []byte { return binary.LittleEndian.AppendUint64([]byte{tag}, k) }
	pay := func(b []byte) []byte { return binary.LittleEndian.AppendUint64(b, 9) }
	good := append(pay(key(walKeyPut, 255)), key(walKeyDel, 7)...)
	for _, tc := range []struct {
		name    string
		b       []byte
		retired bool
	}{
		{"tag 0", []byte{0}, false},
		{"tag 5", pay(key(5, 1)), false},
		{"tag 0xff", slices.Concat(good, []byte{0xff}), false},
		{"key put cut short", key(walKeyPut, 1), false},
		{"key delete cut short", key(walKeyDel, 1)[:8], false},
		{"key at the key space's size", key(walKeyDel, keys), false},
		{"key 2^64-1", pay(key(walKeyPut, ^uint64(0))), false},
		{"good ops, then a bad one", slices.Concat(good, key(walKeyDel, 1<<40)), false},
		{"coordinate put", []byte{retiredPut, 1, 0, 0, 0, 1, 0, 0, 0, 9, 0, 0, 0, 0, 0, 0, 0}, true},
		{"coordinate delete", []byte{retiredDel, 1, 0, 0, 0, 1, 0, 0, 0}, true},
		{"coordinate tag alone", []byte{retiredDel}, true},
		{"good ops, then a coordinate put", slices.Concat(good, []byte{retiredPut}), true},
	} {
		dst := []BatchOp{{Key: 7}}
		got, err := DecodeBatch(dst, tc.b, keys)
		if !errors.Is(err, ErrWAL) || errors.Is(err, ErrRetiredOp) != tc.retired || len(got) != 1 || got[0] != dst[0] {
			t.Errorf("%s: decoded %+v, %v; want ErrWAL (retired %v) and dst unextended", tc.name, got, err, tc.retired)
		}
	}
	got, err := DecodeBatch(nil, good, keys)
	want := []BatchOp{{Key: 255, Payload: 9}, {Key: 7, Del: true}}
	if err != nil || !slices.Equal(got, want) {
		t.Fatalf("good ops decoded as %+v, %v; want %+v", got, err, want)
	}
}

// TestDecodeBatchAllocs pins what decoding costs past dst's growth:
// nothing, for every batch.
func TestDecodeBatchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on allocation-free paths")
	}
	c, err := core.NewOnion2D(1 << 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 3, 110} {
		ops := sampleOps(c, n)
		b := EncodeBatch(nil, ops)
		dst := make([]BatchOp, 0, n)
		allocs := testing.AllocsPerRun(100, func() {
			if dst, err = DecodeBatch(dst[:0], b, c.Universe().Size()); err != nil || len(dst) != n {
				t.Fatalf("%d ops: decoded %d, %v", n, len(dst), err)
			}
		})
		if allocs != 0 {
			t.Errorf("a batch of %d ops: %.1f allocations, want 0", n, allocs)
		}
	}
}
