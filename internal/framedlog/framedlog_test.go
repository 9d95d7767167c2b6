package framedlog

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/onioncurve/onion/internal/vfs"
)

// writeLog appends the payloads to a fresh log at path and closes it.
func writeLog(t testing.TB, fsys vfs.FS, path string, payloads [][]byte) {
	t.Helper()
	w, err := Create(fsys, path)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
}

// replayAll collects (copies of) every payload Replay yields, and the
// byte length of the frames that carried them.
func replayAll(t testing.TB, path string) ([][]byte, int64) {
	t.Helper()
	var got [][]byte
	valid := int64(0)
	err := Replay(vfs.OS{}, path, func(p []byte) bool {
		got = append(got, append([]byte(nil), p...))
		valid += int64(headerBytes + len(p))
		return true
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got, valid
}

func equalPayloads(a, b [][]byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !bytes.Equal(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestRoundTrip: payloads of every size class — including one larger
// than the Writer's buffer — come back in order, and the counters match
// the file.
func TestRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	payloads := [][]byte{{1}, bytes.Repeat([]byte{2}, 17), bytes.Repeat([]byte{3}, bufferBytes+5), {4, 5}}
	w, err := Create(vfs.OS{}, path)
	if err != nil {
		t.Fatal(err)
	}
	want := int64(0)
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
		want += int64(headerBytes + len(p))
	}
	if w.Bytes() != want {
		t.Fatalf("Bytes() = %d, want %d", w.Bytes(), want)
	}
	if err := w.Append(nil); err == nil {
		t.Fatal("empty payload accepted")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("second close: %v", err)
	}
	if err := w.Append([]byte{9}); err == nil {
		t.Fatal("append after close accepted")
	}
	got, valid := replayAll(t, path)
	if !equalPayloads(got, payloads) || valid != want {
		t.Fatalf("replayed %d payloads / %d bytes, want %d / %d", len(got), valid, len(payloads), want)
	}
}

// TestReplayCallerRejects: a payload the caller's codec refuses is tail
// damage like any other — the prefix before it is the log.
func TestReplayCallerRejects(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log")
	writeLog(t, vfs.OS{}, path, [][]byte{{1}, {2}, {3}})
	n := 0
	err := Replay(vfs.OS{}, path, func(p []byte) bool {
		n++
		return p[0] != 2
	})
	if err != nil || n != 2 {
		t.Fatalf("replay offered %d frames (err %v), want it to stop at the rejected second", n, err)
	}
	if err := Replay(vfs.OS{}, path+".absent", func([]byte) bool { return true }); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("replay of a missing file = %v, want ErrNotExist", err)
	}
}

// TestWriterLatchesFailure: after a torn write or a lost fsync the tail
// of the file is unknowable, so the Writer refuses everything that
// follows — and what replay finds is exactly the frames synced before.
func TestWriterLatchesFailure(t *testing.T) {
	for _, f := range []vfs.Fault{
		{Op: vfs.OpWrite, N: 2, Kind: vfs.KindShortWrite},
		{Op: vfs.OpSync, N: 2, Kind: vfs.KindSyncLoss},
	} {
		t.Run(f.Kind.String(), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			inj := vfs.NewInjecting(vfs.OS{})
			inj.SetFaults(f)
			w, err := Create(inj, path)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.Append([]byte("acked")); err != nil {
				t.Fatal(err)
			}
			if err := w.Sync(); err != nil {
				t.Fatal(err)
			}
			if err := w.Append([]byte("lost")); err != nil {
				t.Fatal(err)
			}
			if err := w.Sync(); !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("faulted sync = %v", err)
			}
			if w.Err() == nil {
				t.Fatal("failure not latched")
			}
			if err := w.Append([]byte("after")); !errors.Is(err, vfs.ErrInjected) {
				t.Fatalf("append behind a torn region = %v, want the latched fault", err)
			}
			if err := w.Sync(); err == nil {
				t.Fatal("sync of a failed log reported success")
			}
			w.Close() //nolint:errcheck
			got, _ := replayAll(t, path)
			if !equalPayloads(got, [][]byte{[]byte("acked")}) {
				t.Fatalf("replay after the fault: %q, want only the synced frame", got)
			}
		})
	}
}

// FuzzFramedLogReplay is the one fuzzer of the torn-tail rule both logs
// rest on, seeded with the union of the FuzzWALReplay and FuzzReplLog
// corpora. A log built from the input is truncated at a fuzzed byte,
// optionally has one byte flipped, optionally gains a garbage frame
// header, and replay must: never fail; return exactly the written frames
// for every frame that ends before the first damaged byte; return an
// exact prefix when the damage is pure truncation; and be stable — the
// valid prefix it reports replays to the same payloads.
func FuzzFramedLogReplay(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, uint16(7), false, uint32(0))
	f.Add([]byte{0xff, 0x00, 0xaa}, uint16(0), false, uint32(0))
	f.Add([]byte{}, uint16(100), false, uint32(0))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(0), false, uint32(1<<30))
	f.Add([]byte{0xff, 0x00, 0x10, 0x20, 0x30, 0x40}, uint16(17), true, uint32(0))
	f.Add([]byte{}, uint16(5), false, uint32(3))
	f.Add([]byte{9, 8, 7, 6, 5, 4, 3, 2, 1, 0, 1, 2}, uint16(40), true, uint32(2))
	f.Fuzz(func(t *testing.T, data []byte, cut uint16, flip bool, garbage uint32) {
		// Three input bytes drive one frame: a payload of 1..24 bytes.
		var written [][]byte
		for i := 0; i+2 < len(data) && len(written) < 64; i += 3 {
			p := bytes.Repeat(data[i+1:i+3], int(data[i]%12)+1)
			written = append(written, p[:len(p)-int(data[i]>>7)]) // odd lengths too
		}
		dir := t.TempDir()
		path := filepath.Join(dir, "log")
		writeLog(t, vfs.OS{}, path, written)
		full, valid := replayAll(t, path)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !equalPayloads(full, written) || valid != int64(len(raw)) {
			t.Fatalf("round trip: %d frames / %d bytes back, wrote %d / %d", len(full), valid, len(written), len(raw))
		}

		// Damage. intact is the length of the untouched prefix.
		raw = raw[:int(cut)%(len(raw)+1)]
		intact := len(raw)
		if flip && len(raw) > 0 {
			intact = int(cut) % len(raw)
			raw[intact] ^= 0x5a
		}
		if garbage != 0 {
			raw = binary.LittleEndian.AppendUint32(raw, garbage)
			raw = binary.LittleEndian.AppendUint32(raw, ^garbage)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		got, valid := replayAll(t, path)
		if valid > int64(len(raw)) {
			t.Fatalf("valid prefix %d beyond the %d-byte file", valid, len(raw))
		}
		whole, off := 0, 0
		for _, p := range written {
			if off += headerBytes + len(p); off > intact {
				break
			}
			whole++
		}
		if len(got) < whole || !equalPayloads(got[:whole], written[:whole]) {
			t.Fatalf("%d frames end inside the %d intact bytes, replay kept %d", whole, intact, len(got))
		}
		if !flip && garbage == 0 && len(got) != whole {
			t.Fatalf("pure truncation at %d: %d frames, want exactly %d", intact, len(got), whole)
		}
		if err := os.WriteFile(path, raw[:valid], 0o644); err != nil {
			t.Fatal(err)
		}
		again, validAgain := replayAll(t, path)
		if !equalPayloads(again, got) || validAgain != valid {
			t.Fatalf("valid prefix is not stable: %d frames / %d bytes, then %d / %d", len(got), valid, len(again), validAgain)
		}
	})
}
