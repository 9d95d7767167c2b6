package engine

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/vfs"
)

// FuzzWALReplay drives the WAL through a fuzzed stream of batches and a
// fuzzed truncation point: the round trip must be exact, and recovery of
// any prefix of the file must yield exactly the ops of the batches whose
// frames are complete — the torn-tail contract, explored byte by byte by
// the fuzzer. A batch may be framed with its first tag rewritten to a
// retired coordinate tag, as a log of an older release holds: a complete
// such frame fails the replay with ErrRetiredOp wherever it sits, and a
// torn one is tail damage like any other.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint16(7))
	f.Add([]byte{0xff, 0x00, 0xaa}, uint16(0))
	f.Add([]byte{}, uint16(100))
	// A three-op batch with a delete in the middle, then a one-op batch.
	f.Add([]byte{1, 2, 0x01, 3, 4, 0x04, 5, 6, 0x41, 7, 8, 0x42}, uint16(40))
	// A key-tagged batch, then a retired one (bit 0x80) whose frame the
	// cut leaves whole: the replay must refuse it.
	f.Add([]byte{1, 2, 0x41, 3, 4, 0x84, 5, 6, 0x41, 7, 8, 0x42}, uint16(200))
	// Batches at the ends of the key space.
	f.Add([]byte{0xff, 0xff, 0x45, 0, 0, 0x44, 0xff, 0x00, 0x41}, uint16(30))
	c, err := core.NewOnion2D(256)
	if err != nil {
		f.Fatal(err)
	}
	keys := c.Universe().Size()
	f.Fuzz(func(t *testing.T, raw []byte, cutSeed uint16) {
		// Decode a deterministic op stream out of the raw bytes; bit 0x40
		// of an op's third byte ends its batch, and bit 0x80 of any of a
		// batch's ops frames it with a retired tag.
		var ops []BatchOp
		var batches [][]BatchOp
		var retired []bool
		start, old := 0, false
		for i := 0; i+2 < len(raw) && len(ops) < 64; i += 3 {
			key := c.Index(geom.Point{uint32(raw[i]), uint32(raw[i+1])})
			if raw[i+2]%4 == 0 {
				ops = append(ops, BatchOp{Key: key, Del: true})
			} else {
				ops = append(ops, BatchOp{Key: key, Payload: uint64(raw[i+2]) << 3})
			}
			old = old || raw[i+2]&0x80 != 0
			if raw[i+2]&0x40 != 0 || i+5 >= len(raw) || len(ops) == 64 {
				batches = append(batches, ops[start:])
				retired = append(retired, old)
				start, old = len(ops), false
			}
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "wal.log")
		w, err := createWAL(vfs.OS{}, path)
		if err != nil {
			t.Fatal(err)
		}
		for i, b := range batches {
			enc := EncodeBatch(nil, b)
			if retired[i] {
				enc[0] = retiredTag(b[0])
			}
			if err := w.Append(enc); err != nil {
				t.Fatal(err)
			}
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		// Replay a cut of the file: the batches whose frames are complete
		// come back, unless one of them is retired.
		check := func(cut int) {
			t.Helper()
			if err := os.WriteFile(path, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			got, err := replayWAL(vfs.OS{}, path, keys)
			complete, off := 0, 0
			for i, b := range batches {
				off += 8
				for _, op := range b {
					off += keyOpSize(op.Del)
				}
				if off > cut {
					break
				}
				if retired[i] {
					if !errors.Is(err, ErrRetiredOp) || !errors.Is(err, ErrWAL) || got != nil {
						t.Fatalf("cut %d: a whole retired frame replayed as %d ops, %v; want ErrRetiredOp", cut, len(got), err)
					}
					return
				}
				complete += len(b)
			}
			if err != nil || !slices.Equal(got, ops[:complete]) {
				t.Fatalf("cut %d: recovered %d ops, %v; want %d", cut, len(got), err, complete)
			}
		}
		check(len(data))
		check(int(cutSeed) % (len(data) + 1))
	})
}

// retiredTag is the coordinate tag a log of an older release held in
// place of op's key tag.
func retiredTag(op BatchOp) byte {
	if op.Del {
		return retiredDel
	}
	return retiredPut
}

// FuzzIdentityRecords feeds arbitrary bytes to the parsers of the records
// that name a directory's curve: the CURVE identity record and the
// snapshot manifest. Neither may panic, and whatever one accepts must
// render and parse back to the same identity (and the same manifest).
// Only the current formats parse: a record of three identity lines, or a
// manifest under any header but "onion-snapshot v2", is refused.
func FuzzIdentityRecords(f *testing.F) {
	id := curve.Identity{Name: "onion", Dims: 2, Side: 64, Fingerprint: 0x4fcd3dd6f7fc49bd}
	f.Add(id.Record())
	f.Add([]byte("onion-snapshot v2\n" + id.Lines() + "epoch 2\nparent /s 1\narchive -\nsegments 1\nseg-000000000001-000000000002-000.pst 207 9\n"))
	// A v2 manifest body under the v1 header: refused on the header alone.
	f.Add([]byte("onion-snapshot v1\n" + id.Lines() + "epoch 1\nparent -\narchive -\nsegments 0\n"))
	f.Add([]byte("onion-curve v1\ncurve onion\ndims two\nside 64\nfingerprint 4fcd3dd6f7fc49b\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, err := curve.ParseRecord(data); err == nil {
			if back, err := curve.ParseRecord(got.Record()); err != nil || back != got {
				t.Fatalf("record %q parsed to %v, which renders back to %v (%v)", data, got, back, err)
			}
		} else if !errors.Is(err, curve.ErrBadIdentity) {
			t.Fatalf("record %q: %v, want ErrBadIdentity", data, err)
		}
		m, err := parseSnapshotManifest(data)
		if err != nil {
			if !errors.Is(err, ErrSnapshot) {
				t.Fatalf("manifest %q: %v, want ErrSnapshot", data, err)
			}
			return
		}
		if !bytes.HasPrefix(data, []byte(snapshotManifestHeader+"\n")) {
			t.Fatalf("manifest %q parsed without the %q header", data, snapshotManifestHeader)
		}
		back, err := parseSnapshotManifest([]byte(m.body()))
		if err != nil || back.id != m.id || back.epoch != m.epoch || back.parent != m.parent ||
			back.archive != m.archive || !slices.Equal(back.segs, m.segs) {
			t.Fatalf("manifest %q parsed to %+v, which renders back to %+v (%v)", data, m, back, err)
		}
	})
}
