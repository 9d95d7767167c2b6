package repl

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"

	"github.com/onioncurve/onion/internal/core"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/geom"
	"github.com/onioncurve/onion/internal/vfs"
)

// FuzzReplLog builds a replication log from fuzz-derived entries, damages
// the file (truncation, and optionally a byte flip), and checks the
// recovery invariants that the follower's durability story rests on:
//
//   - recovery never errors and never panics, whatever the damage;
//   - recovered indices are strictly increasing with sane payloads:
//     each decodes to the batch of one to four ops it was written as,
//     and the log counts the ops they hold; an entry whose first tag is
//     a retired coordinate tag, as a log of an older release holds, is
//     kept by the log (which does not read batches) and refused by the
//     decoder with engine.ErrRetiredOp, never decoded;
//   - recovery is idempotent — reopening the recovered file yields the
//     same entries;
//   - the recovered log accepts appends, and they survive a reopen;
//   - pure truncation (no flip) recovers an exact prefix of what was
//     written — a torn tail can only shorten history, never corrupt it.
func FuzzReplLog(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8, 9}, uint16(0), false)
	f.Add([]byte{0xff, 0x00, 0x10, 0x20, 0x30, 0x40}, uint16(17), true)
	f.Add([]byte{}, uint16(5), false)
	// A retired entry (bit 0x80 of the third byte) between key-tagged
	// ones, left whole: its decode must be refused.
	f.Add([]byte{1, 2, 0x03, 4, 5, 0x82, 7, 8, 0x01, 9, 10, 0x00}, uint16(242), false)
	f.Add([]byte{3, 0x11, 0x01, 6, 0x22, 0x02, 9, 0x33, 0x03}, uint16(60), true)
	c, err := core.NewOnion2D(2048)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte, cut uint16, flip bool) {
		dir := t.TempDir()
		l, err := openReplLog(vfs.OS{}, dir)
		if err != nil {
			t.Fatal(err)
		}

		// Deterministically derive a log from the input: 3 bytes drive
		// one entry (index stride with gaps, epoch, and a batch of one to
		// four puts and deletes).
		var written []Entry
		idx := uint64(0)
		for i := 0; i+2 < len(data) && len(written) < 64; i += 3 {
			idx += uint64(data[i]%4) + 1
			ops := make([]engine.BatchOp, 1+data[i+2]%4)
			for k := range ops {
				v := uint32(data[i+k%3]) + uint32(k)
				ops[k] = engine.BatchOp{Key: c.Index(geom.Point{v, v * 7}), Payload: uint64(v) << 32, Del: data[i+1]>>k&1 == 1}
			}
			e := Entry{
				Index: idx,
				Epoch: uint64(data[i+1]%4) + 1,
				Batch: engine.EncodeBatch(nil, ops),
			}
			if data[i+2]&0x80 != 0 {
				e.Batch[0] = 1 // the retired coordinate put tag
			}
			if err := l.append([]Entry{e}); err != nil {
				t.Fatal(err)
			}
			written = append(written, e)
		}
		if err := l.close(); err != nil {
			t.Fatal(err)
		}

		// Damage the file: truncate somewhere, maybe flip one byte.
		path := filepath.Join(dir, logName)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(raw) > 0 {
			raw = raw[:int(cut)%(len(raw)+1)]
		}
		if flip && len(raw) > 0 {
			raw[int(cut)%len(raw)] ^= 0x5a
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}

		// Invariant 1–2: recovery succeeds and yields a sane log.
		l2, err := openReplLog(vfs.OS{}, dir)
		if err != nil {
			t.Fatalf("recovery failed: %v", err)
		}
		rec := append([]Entry(nil), l2.entries...)
		held := 0
		for i, e := range rec {
			if i > 0 && e.Index <= rec[i-1].Index {
				t.Fatalf("recovered indices not increasing: %d then %d", rec[i-1].Index, e.Index)
			}
			if len(e.Batch) <= 0 || len(e.Batch) > 1<<20 {
				t.Fatalf("recovered entry %d has payload length %d", e.Index, len(e.Batch))
			}
			n := engine.BatchLen(e.Batch)
			held += n
			ops, err := engine.DecodeBatch(nil, e.Batch, c.Universe().Size())
			if e.Batch[0] == 1 {
				if !errors.Is(err, engine.ErrRetiredOp) || ops != nil || n != 1 {
					t.Fatalf("recovered retired entry %d: %d ops decoded of %d counted (%v), want ErrRetiredOp", e.Index, len(ops), n, err)
				}
				continue
			}
			if err != nil || n != len(ops) || n < 1 || n > 4 {
				t.Fatalf("recovered entry %d: %d ops decoded of %d counted (%v)", e.Index, len(ops), n, err)
			}
		}
		if l2.ops != held {
			t.Fatalf("recovered log counts %d ops, its entries hold %d", l2.ops, held)
		}

		// Invariant 5: without a flip, recovery is an exact prefix.
		if !flip {
			if len(rec) > len(written) {
				t.Fatalf("recovered %d entries from %d written", len(rec), len(written))
			}
			for i, e := range rec {
				w := written[i]
				if e.Index != w.Index || e.Epoch != w.Epoch || !bytes.Equal(e.Batch, w.Batch) {
					t.Fatalf("entry %d diverged after truncation: got %+v want %+v", i, e, w)
				}
			}
		}

		// Invariant 4: the recovered log is live — an append lands after
		// the valid prefix and survives a reopen.
		next := uint64(1)
		if n := len(rec); n > 0 {
			next = rec[n-1].Index + 1
		}
		fresh := Entry{Index: next, Epoch: 99, Batch: []byte("post-recovery")}
		if err := l2.append([]Entry{fresh}); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
		if err := l2.close(); err != nil {
			t.Fatal(err)
		}

		// Invariant 3: reopening is stable.
		l3, err := openReplLog(vfs.OS{}, dir)
		if err != nil {
			t.Fatalf("second recovery failed: %v", err)
		}
		defer l3.close() //nolint:errcheck
		if len(l3.entries) != len(rec)+1 {
			t.Fatalf("reopen holds %d entries, want %d", len(l3.entries), len(rec)+1)
		}
		for i, e := range rec {
			g := l3.entries[i]
			if g.Index != e.Index || g.Epoch != e.Epoch || !bytes.Equal(g.Batch, e.Batch) {
				t.Fatalf("entry %d unstable across reopen", i)
			}
		}
		if tail := l3.entries[len(rec)]; tail.Index != fresh.Index || !bytes.Equal(tail.Batch, fresh.Batch) {
			t.Fatal("post-recovery append lost on reopen")
		}
	})
}
