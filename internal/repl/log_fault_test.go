package repl

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/vfs"
)

// lfEntry is entry i of a fault-test log: a put of rtPoint(i), a distinct
// point per index below rtSide, so engine state maps back to indices.
func lfEntry(i, epoch uint64) Entry {
	op := engine.BatchOp{Key: rtKey(int(i)), Payload: 1000*epoch + i}
	return Entry{Index: i, Epoch: epoch, Batch: engine.EncodeBatch(nil, []engine.BatchOp{op})}
}

func lfEntries(lo, hi, epoch uint64) []Entry {
	var es []Entry
	for i := lo; i <= hi; i++ {
		es = append(es, lfEntry(i, epoch))
	}
	return es
}

func lfOpen(t testing.TB, dir string, fsys vfs.FS) (*Follower, error) {
	t.Helper()
	opts := rtEngOpts()
	opts.FS = fsys
	return OpenFollower("f1", dir, rtCurve(t), FollowerOptions{Engine: opts, maxLogEntries: 6})
}

func sameEntries(a, b []Entry) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].Index != b[i].Index || a[i].Epoch != b[i].Epoch || !bytes.Equal(a[i].Batch, b[i].Batch) {
			return false
		}
	}
	return true
}

// TestReplLogHeaderCorruptionDetected flips one bit inside the index
// bytes and one inside the epoch bytes of a mid-log entry — keeping the
// indices strictly increasing, so the ordering check alone cannot see
// it — and asserts replay keeps exactly the entries before the damage:
// the frame checksum covers the entry header, not just the op.
func TestReplLogHeaderCorruptionDetected(t *testing.T) {
	const victim = 5 // position of the damaged entry
	var es []Entry
	for i := uint64(1); i <= 10; i++ {
		// Indices 16 apart leave room for a low-bit flip; epochs are
		// distinctive so the epoch bytes can be located in the file.
		es = append(es, Entry{Index: 16 * i, Epoch: 0xe00000 + i, Batch: []byte{byte(i), 0xab, 0xcd}})
	}
	for _, field := range []struct {
		name string
		val  uint64
	}{{"index", es[victim].Index}, {"epoch", es[victim].Epoch}} {
		t.Run(field.name, func(t *testing.T) {
			dir := t.TempDir()
			l, err := openReplLog(vfs.OS{}, dir)
			if err != nil {
				t.Fatal(err)
			}
			if err := l.append(es); err != nil {
				t.Fatal(err)
			}
			if err := l.close(); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(dir, logName)
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			off := bytes.Index(raw, binary.LittleEndian.AppendUint64(nil, field.val))
			if off < 0 {
				t.Fatalf("%s bytes of entry %d not found in the log", field.name, victim)
			}
			raw[off] ^= 0x01
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			l, err = openReplLog(vfs.OS{}, dir)
			if err != nil {
				t.Fatal(err)
			}
			defer l.close() //nolint:errcheck
			if !sameEntries(l.entries, es[:victim]) {
				t.Fatalf("replay kept %d entries past a flipped %s bit, want exactly the %d before it",
					len(l.entries), field.name, victim)
			}
		})
	}
}

// TestFollowerNeverAcksPastTornRegion: a follower-log write torn short,
// or an fsync that lost its dirty pages, leaves the file's tail
// unknowable. The leader's retry of the same request must not be
// acknowledged on top of it — the retry's entries would sit behind a
// region replay cannot cross — and neither may any later request, until
// the follower is reopened; the reopened log holds exactly the entries
// acknowledged before the fault and accepts the retry.
func TestFollowerNeverAcksPastTornRegion(t *testing.T) {
	for _, fault := range []vfs.Fault{
		{Op: vfs.OpWrite, Path: logName, N: 1, Kind: vfs.KindShortWrite},
		{Op: vfs.OpSync, Path: logName, N: 1, Kind: vfs.KindSyncLoss},
	} {
		t.Run(fault.Kind.String(), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "f1")
			inj := vfs.NewInjecting(vfs.OS{})
			f, err := lfOpen(t, dir, inj)
			if err != nil {
				t.Fatal(err)
			}
			first := AppendRequest{Epoch: 1, Entries: lfEntries(1, 3, 1)}
			if resp, err := appendFrom(f, first); err != nil || !resp.Ok || resp.Ack != 3 {
				t.Fatalf("clean append: %+v, %v", resp, err)
			}
			inj.SetFaults(fault)
			// One entry, so the half a short write lands is a torn frame.
			second := AppendRequest{Epoch: 1, PrevIndex: 3, PrevEpoch: 1, Entries: lfEntries(4, 4, 1)}
			if resp, err := appendFrom(f, second); err == nil {
				t.Fatalf("faulted append answered %+v", resp)
			}
			inj.SetFaults() // the disk is healthy again; the log is not
			for i, req := range []AppendRequest{
				second,
				{Epoch: 1, PrevIndex: 3, PrevEpoch: 1, Entries: lfEntries(4, 6, 1)},
			} {
				resp, err := appendFrom(f, req)
				if err == nil || resp.Ok {
					t.Fatalf("request %d after the fault answered %+v, %v: acked past a torn region", i, resp, err)
				}
				if !errors.Is(err, vfs.ErrInjected) {
					t.Fatalf("request %d after the fault: %v does not carry the latched cause", i, err)
				}
			}
			if st := f.Status(); st.Last != 3 {
				t.Fatalf("failed follower reports last %d, want the acked 3", st.Last)
			}
			f.Close() //nolint:errcheck // the latched log reports its failure again

			f, err = lfOpen(t, dir, vfs.OS{})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close() //nolint:errcheck
			if !sameEntries(f.log.entries, first.Entries) {
				t.Fatalf("reopened log holds %d entries, want exactly the 3 acked before the fault", len(f.log.entries))
			}
			if resp, err := appendFrom(f, second); err != nil || !resp.Ok || resp.Ack != 4 {
				t.Fatalf("retry after reopen: %+v, %v", resp, err)
			}
		})
	}
}

// TestFollowerRetiredLogLayoutReseeds: a follower directory written
// before the replication log moved onto the shared frame format (state
// header v1; entries framed index|epoch|len|crc|op) is never replayed
// under the new framing. The follower latches mustSeed — durably: the
// latch survives a reopen, because nothing is persisted until the seed.
func TestFollowerRetiredLogLayoutReseeds(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "f1")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	state := "onion repl state v1\nrole follower\nepoch 3\nbase 0\nbaseEpoch 0\napplied 0\n"
	if err := os.WriteFile(statePath(dir), []byte(state), 0o644); err != nil {
		t.Fatal(err)
	}
	var old []byte
	for _, e := range lfEntries(1, 2, 3) {
		old = binary.LittleEndian.AppendUint64(old, e.Index)
		old = binary.LittleEndian.AppendUint64(old, e.Epoch)
		old = binary.LittleEndian.AppendUint32(old, uint32(len(e.Batch)))
		old = binary.LittleEndian.AppendUint32(old, 0) // never read
		old = append(old, e.Batch...)
	}
	if err := os.WriteFile(filepath.Join(dir, logName), old, 0o644); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 2; round++ {
		f, err := lfOpen(t, dir, vfs.OS{})
		if err != nil {
			t.Fatal(err)
		}
		if st := f.Status(); !st.MustSeed || st.Epoch != 3 {
			t.Fatalf("round %d: status %+v, want MustSeed at epoch 3", round, st)
		}
		req := AppendRequest{Epoch: 4, Entries: lfEntries(1, 1, 4)}
		if resp, err := appendFrom(f, req); err != nil || !resp.NeedSeed || resp.Ok {
			t.Fatalf("round %d: append answered %+v, %v, want NeedSeed", round, resp, err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplLogGoldenBytes pins a REPL_LOG frame holding one three-op
// batch entry (put, delete, put): the framed log's len | crc32c header,
// then index | epoch | the batch's EncodeBatch bytes, each op a key tag,
// its 8-byte key and, for puts, its payload. Replay yields the entry
// back, and its batch decodes to the three ops. A frame of the same entry
// written with coordinate tags, as logs were before ops carried keys,
// replays as an entry too — the log does not read batches — but its
// batch is refused (engine.ErrRetiredOp), not decoded.
func TestReplLogGoldenBytes(t *testing.T) {
	c := rtCurve(t)
	ops := []engine.BatchOp{
		{Key: 0x21, Payload: 0x0102030405060708},
		{Key: 0x43, Del: true},
		{Key: 0x3ff, Payload: 9},
	}
	keyFrame, _ := hex.DecodeString("3b000000" + "11a1c450" + // len 59, crc32c
		"0700000000000000" + "0300000000000000" + // index 7, epoch 3
		"03" + "2100000000000000" + "0807060504030201" + // put 0x21
		"04" + "4300000000000000" + // delete 0x43
		"03" + "ff03000000000000" + "0900000000000000") // put 0x3ff
	coordFrame, _ := hex.DecodeString("3b000000" + "8343bb9f" + // len 59, crc32c
		"0700000000000000" + "0300000000000000" + // index 7, epoch 3
		"01" + "01000000" + "02000000" + "0807060504030201" + // put (1,2)
		"02" + "03000000" + "04000000" + // delete (3,4)
		"01" + "05000000" + "06000000" + "0900000000000000") // put (5,6)
	e := Entry{Index: 7, Epoch: 3, Batch: engine.EncodeBatch(nil, ops)}
	dir := t.TempDir()
	l, err := openReplLog(vfs.OS{}, dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.append([]Entry{e}); err != nil {
		t.Fatal(err)
	}
	if err := l.close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(filepath.Join(dir, logName))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, keyFrame) {
		t.Fatalf("REPL_LOG bytes changed:\n got %x\nwant %x", got, keyFrame)
	}
	for _, tc := range []struct {
		name  string
		frame []byte
		want  []engine.BatchOp // nil: the batch is refused
	}{
		{"key tags", keyFrame, ops},
		{"coordinate tags", coordFrame, nil},
	} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, logName), tc.frame, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := openReplLog(vfs.OS{}, dir)
		if err != nil {
			t.Fatal(err)
		}
		defer l.close() //nolint:errcheck
		if len(l.entries) != 1 || l.entries[0].Index != 7 || l.entries[0].Epoch != 3 {
			t.Fatalf("%s: replayed %+v, want the one entry", tc.name, l.entries)
		}
		dec, err := engine.DecodeBatch(nil, l.entries[0].Batch, c.Universe().Size())
		if tc.want == nil {
			if !errors.Is(err, engine.ErrRetiredOp) || dec != nil {
				t.Fatalf("%s: decoded as %+v, %v; want ErrRetiredOp", tc.name, dec, err)
			}
			continue
		}
		if err != nil || !slices.Equal(dec, tc.want) || l.ops != len(tc.want) {
			t.Fatalf("%s: decoded as %+v, %v (log counts %d ops); want %+v", tc.name, dec, err, l.ops, tc.want)
		}
	}
}

// TestFollowerRetiredEntryLogReseeds: a follower directory written when
// an entry held one op in the coordinate encoding — these bytes are the
// REPL_LOG such a follower wrote after its leader ran PutBatch(put 1,
// put 2, delete 1) and Put(3) — opens, since the log does not read
// batches, but its entries cannot be applied. The first apply latches
// mustSeed, and every append is answered NeedSeed, not an error, until a
// leader seeds the follower; it then converges on the leader's state.
func TestFollowerRetiredEntryLogReseeds(t *testing.T) {
	base := t.TempDir()
	dir := filepath.Join(base, "f1")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	state := "onion repl state v2\nrole follower\nepoch 1\nbase 0\nbaseEpoch 0\napplied 0\n"
	if err := os.WriteFile(statePath(dir), []byte(state), 0o644); err != nil {
		t.Fatal(err)
	}
	// Per frame: len | crc32c | index | epoch | one op.
	log, _ := hex.DecodeString("" +
		"21000000" + "9e8ea061" + "0100000000000000" + "0100000000000000" + "01" + "07000000" + "12000000" + "6500000000000000" +
		"21000000" + "de059255" + "0200000000000000" + "0100000000000000" + "01" + "0e000000" + "1f000000" + "6600000000000000" +
		"19000000" + "a172c371" + "0300000000000000" + "0100000000000000" + "02" + "07000000" + "12000000" +
		"21000000" + "c2375403" + "0400000000000000" + "0100000000000000" + "01" + "15000000" + "0c000000" + "6700000000000000")
	if err := os.WriteFile(filepath.Join(dir, logName), log, 0o644); err != nil {
		t.Fatal(err)
	}
	f, err := lfOpen(t, dir, vfs.OS{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck
	if st := f.Status(); st.MustSeed || st.Last != 4 || len(f.log.entries) != 4 {
		t.Fatalf("status %+v with %d entries, want the 4 entries held", st, len(f.log.entries))
	}
	for round := 0; round < 2; round++ {
		resp, err := appendFrom(f, AppendRequest{Epoch: 1, LeaderID: "leader", PrevIndex: 4, PrevEpoch: 1, Commit: 4})
		if err != nil || !resp.NeedSeed || resp.Ok {
			t.Fatalf("watermark push %d: %+v, %v; want NeedSeed", round, resp, err)
		}
	}
	if st := f.Status(); !st.MustSeed || st.Applied != 0 {
		t.Fatalf("status %+v, want MustSeed with nothing applied", st)
	}

	// A leader of the next epoch, with a second follower for its quorum,
	// seeds f1, which then holds exactly the leader's state.
	c := f.c
	f2, err := lfOpen(t, filepath.Join(base, "f2"), vfs.OS{})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Close() //nolint:errcheck
	lb := NewLoopback()
	lb.Register("f1", f)
	lb.Register("f2", f2)
	g, err := Lead(filepath.Join(base, "leader"), c, Config{
		ID: "leader", Peers: []string{"f1", "f2"}, Transport: lb, Epoch: 2,
		engineOpts: rtEngOpts(), retryBase: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close() //nolint:errcheck
	putRange(t, g.Engine(), 0, 12)
	if st := converge(t, g, f); st.Seeds != 1 {
		t.Fatalf("f1 converged with %d seeds, want 1", st.Seeds)
	}
	assertSameState(t, c, stateOf(t, c, g.Engine()), f.Engine(), "f1")
}

// TestFollowerLogBoundCountsOps: the follower's compaction trigger counts
// ops, not entries. With maxLogEntries 6, two 3-op batch entries stay in
// the log; the third takes it to 9 ops, so the follower applies the
// committed entries and compacts them away.
func TestFollowerLogBoundCountsOps(t *testing.T) {
	f, err := lfOpen(t, filepath.Join(t.TempDir(), "f1"), vfs.OS{})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close() //nolint:errcheck
	entry := func(i uint64) Entry {
		var ops []engine.BatchOp
		for k := uint64(0); k < 3; k++ {
			ops = append(ops, engine.BatchOp{Key: rtKey(int(3*i + k)), Payload: 10*i + k})
		}
		return Entry{Index: i, Epoch: 1, Batch: engine.EncodeBatch(nil, ops)}
	}
	for i := uint64(1); i <= 3; i++ {
		req := AppendRequest{Epoch: 1, PrevIndex: i - 1, PrevEpoch: min(i-1, 1), Entries: []Entry{entry(i)}, Commit: i}
		if resp, err := appendFrom(f, req); err != nil || !resp.Ok || resp.Ack != i {
			t.Fatalf("append %d: %+v, %v", i, resp, err)
		}
		wantBase, wantEntries := uint64(0), int(i)
		if i == 3 {
			wantBase, wantEntries = 3, 0
		}
		if st := f.Status(); st.Base != wantBase || len(f.log.entries) != wantEntries || f.log.ops != 3*wantEntries {
			t.Fatalf("after entry %d: base %d, %d entries holding %d ops; want base %d, %d entries",
				i, st.Base, len(f.log.entries), f.log.ops, wantBase, wantEntries)
		}
	}
	if n := len(stateOf(t, f.c, f.Engine())); n != 9 {
		t.Fatalf("engine holds %d records after compaction, want the 9 ops", n)
	}
}

// lfStep is one request of the fault-matrix script; reopen closes and
// reopens the follower (on the same filesystem) instead.
type lfStep struct {
	req    AppendRequest
	reopen bool
}

// lfScript walks the follower log through every way it changes on disk:
// plain appends, a compaction (steps 3 and 7 push it over maxLogEntries
// = 6 with a commit watermark to fold in), an epoch adoption plus a
// divergent-suffix truncation (step 5), a reopen's replay and republish
// before any compaction, and another after one, over a log that starts
// above its base; the last step adopts an epoch and compacts on that.
func lfScript() []lfStep {
	return []lfStep{
		{req: AppendRequest{Epoch: 1, Entries: lfEntries(1, 3, 1)}},
		{req: AppendRequest{Epoch: 1, PrevIndex: 3, PrevEpoch: 1, Entries: lfEntries(4, 6, 1), Commit: 3}},
		{req: AppendRequest{Epoch: 1, PrevIndex: 6, PrevEpoch: 1, Entries: lfEntries(7, 9, 1), Commit: 6}},
		{req: AppendRequest{Epoch: 1, PrevIndex: 9, PrevEpoch: 1, Entries: lfEntries(10, 12, 1), Commit: 6}},
		{req: AppendRequest{Epoch: 2, PrevIndex: 10, PrevEpoch: 1, Entries: lfEntries(11, 13, 2), Commit: 6}},
		{reopen: true},
		{req: AppendRequest{Epoch: 2, PrevIndex: 13, PrevEpoch: 2, Entries: lfEntries(14, 15, 2), Commit: 13}},
		{req: AppendRequest{Epoch: 2, PrevIndex: 15, PrevEpoch: 2, Commit: 15}},
		{reopen: true},
		{req: AppendRequest{Epoch: 3, PrevIndex: 15, PrevEpoch: 2, Entries: lfEntries(16, 20, 3), Commit: 15}},
	}
}

// lfApply is the model of an acknowledged request: the log keeps what it
// held through PrevIndex and takes the shipped run after it (every
// request of the script either extends the tail or diverges at its
// first entry).
func lfApply(log []Entry, req AppendRequest) []Entry {
	var out []Entry
	for _, e := range log {
		if e.Index <= req.PrevIndex {
			out = append(out, e)
		}
	}
	return append(out, req.Entries...)
}

// lfRun drives the script against dir on fsys until the first error. It
// returns the model log after the last acknowledged step, the request in
// flight when the run stopped (nil after a clean run), and whether the
// follower ever opened.
func lfRun(t *testing.T, dir string, fsys vfs.FS) (acked []Entry, inflight *AppendRequest, opened bool) {
	t.Helper()
	f, err := lfOpen(t, dir, fsys)
	if err != nil {
		return nil, nil, false
	}
	defer func() {
		if f != nil {
			f.Close() //nolint:errcheck // a faulted run closes with errors
		}
	}()
	steps := lfScript()
	for i := range steps {
		if steps[i].reopen {
			if err := f.Close(); err != nil {
				return acked, nil, true
			}
			if _, err := os.Stat(filepath.Join(dir, logName)); err != nil {
				t.Fatalf("log absent after close: %v", err)
			}
			if f, err = lfOpen(t, dir, fsys); err != nil {
				f = nil
				return acked, nil, true
			}
			continue
		}
		resp, err := appendFrom(f, steps[i].req)
		if err != nil {
			return acked, &steps[i].req, true
		}
		if !resp.Ok {
			t.Fatalf("step %d refused: %+v", i, resp)
		}
		acked = lfApply(acked, steps[i].req)
	}
	return acked, nil, true
}

// TestReplLogFaultMatrix fails, and crashes at, every create, write,
// fsync, rename and directory fsync the follower performs on REPL_LOG
// and REPL_STATE across append → compact → truncate → reopen, then
// reopens on a healthy disk and checks: the log file is never absent
// once it existed; every acknowledged entry is present, in order (in
// the log, or — where compaction dropped it — in the engine); and
// nothing else is, except a prefix of the one request that was in
// flight, whose durability is indeterminate exactly like a failed WAL
// append's. The retried request is then accepted.
func TestReplLogFaultMatrix(t *testing.T) {
	// Paths are anchored at the follower directory: the temp directory
	// carries the subtest's name, which spells out the filter.
	filters := []vfs.Fault{
		{Op: vfs.OpCreate, Path: "f1/REPL_"},
		{Op: vfs.OpWrite, Path: "f1/REPL_"},
		{Op: vfs.OpSync, Path: "f1/REPL_"},
		{Op: vfs.OpRename, Path: "f1/REPL_"},
		{Op: vfs.OpSyncDir},
		// The engine's WAL too: what the follower persists as applied
		// must never lead what its engine made durable.
		{Op: vfs.OpWrite, Path: "f1/wal-"},
	}
	inj := vfs.NewInjecting(vfs.OS{})
	inj.SetFaults(filters...)
	want, inflight, _ := lfRun(t, filepath.Join(t.TempDir(), "f1"), inj)
	if inflight != nil || len(want) != 20 {
		t.Fatalf("enumeration run stopped early: %d entries acked", len(want))
	}

	maxPoints := int64(1 << 30)
	if testing.Short() {
		maxPoints = 4
	}
	for fi, flt := range filters {
		total := inj.Matched(fi)
		if total == 0 {
			t.Fatalf("filter %+v matched no operations — the script no longer exercises it", flt)
		}
		stride := max(1, (total+maxPoints-1)/maxPoints)
		for _, kind := range []vfs.Kind{vfs.KindFail, vfs.KindCrash} {
			for n := int64(1); n <= total; n += stride {
				t.Run(fmt.Sprintf("%s-%s-%s-n%d", flt.Op, filepath.Base(flt.Path), kind, n), func(t *testing.T) {
					dir := filepath.Join(t.TempDir(), "f1")
					ifs := vfs.NewInjecting(vfs.OS{})
					ifs.SetFaults(vfs.Fault{Op: flt.Op, Path: flt.Path, N: n, Kind: kind})
					acked, inflight, opened := lfRun(t, dir, ifs)
					if len(ifs.Injected()) == 0 {
						t.Fatalf("fault point %d of %d never fired", n, total)
					}
					if opened {
						if _, err := os.Stat(filepath.Join(dir, logName)); err != nil {
							t.Fatalf("log absent after the fault: %v", err)
						}
					}
					lfCheck(t, dir, acked, inflight)
				})
			}
		}
	}
}

// lfCheck reopens dir on a healthy filesystem and applies the oracle.
func lfCheck(t *testing.T, dir string, acked []Entry, inflight *AppendRequest) {
	t.Helper()
	f, err := lfOpen(t, dir, vfs.OS{})
	if err != nil {
		t.Fatalf("reopen after the fault: %v", err)
	}
	defer f.Close() //nolint:errcheck
	attempt := acked
	if inflight != nil {
		attempt = lfApply(acked, *inflight)
	}
	common := 0
	for common < len(acked) && common < len(attempt) && sameEntries(acked[common:common+1], attempt[common:common+1]) {
		common++
	}
	// holds reports whether the follower holds exactly want: a tail of it
	// in the log, and the head that compaction dropped in the engine.
	holds := func(want []Entry) bool {
		k := len(want) - len(f.log.entries)
		if k < 0 || !sameEntries(want[k:], f.log.entries) {
			return false
		}
		have := stateOf(t, f.c, f.eng)
		for _, e := range want[:k] {
			ops, err := engine.DecodeBatch(nil, e.Batch, f.c.Universe().Size())
			if err != nil {
				t.Fatal(err)
			}
			op := ops[0]
			if have[op.Key] != op.Payload {
				return false
			}
		}
		return true
	}
	// Legal: the acknowledged entries, or their shared prefix with the
	// in-flight request's outcome plus any prefix of what it would add.
	legal := holds(acked)
	for j := common; j <= len(attempt) && !legal; j++ {
		legal = holds(attempt[:j])
	}
	if !legal {
		t.Fatalf("recovered follower (base %d, %d log entries, last %d) holds neither the %d acked entries nor a step toward the in-flight request",
			f.st.base, len(f.log.entries), f.lastIndex(), len(acked))
	}
	if n := len(f.log.entries); n > 0 && f.log.entries[0].Index <= f.st.base {
		t.Fatalf("log starts at %d, at or below the base %d", f.log.entries[0].Index, f.st.base)
	}
	if inflight != nil {
		// The retry is acknowledged — or, where a compaction cut the log
		// past the request's PrevIndex before its state record landed,
		// answered with a resend hint at the request's own last entry.
		resp, err := appendFrom(f, *inflight)
		if err != nil || resp.NeedSeed || (!resp.Ok && resp.Ack != attempt[len(attempt)-1].Index) {
			t.Fatalf("retry of the in-flight request after reopen: %+v, %v", resp, err)
		}
		if !holds(attempt) {
			t.Fatalf("after the retry the follower (base %d, %d log entries) does not hold the request's outcome", f.st.base, len(f.log.entries))
		}
	}
}

// TestSeedDirRemovalFault is the leader-side row of the matrix: the seed
// directory is the last durable state repl touched outside the VFS. With
// its removal routed through the engine's filesystem, a failed removal
// of the stale seed is an error from ensureSeed — not a silent bypass of
// the injector that lets the export proceed over a directory the fault
// said could not be cleared — and the next attempt on a healthy disk
// exports a fresh seed.
func TestSeedDirRemovalFault(t *testing.T) {
	inj := vfs.NewInjecting(vfs.OS{})
	opts := rtEngOpts()
	opts.FS = inj
	g, err := Lead(filepath.Join(t.TempDir(), "leader"), rtCurve(t),
		Config{ID: "leader", engineOpts: opts, seedRefreshEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close() //nolint:errcheck
	if err := g.Engine().Put(rtPoint(1), 1); err != nil {
		t.Fatal(err)
	}
	dir, base, _, err := g.ensureSeed()
	if err != nil {
		t.Fatal(err)
	}
	// One more entry puts the leader seedRefreshEntries past the cached
	// seed, so the next call must clear the directory and re-export.
	if err := g.Engine().Put(rtPoint(2), 2); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadDir(dir)
	if err != nil || len(before) == 0 {
		t.Fatalf("exported seed directory: %d entries, %v", len(before), err)
	}
	inj.SetFaults(vfs.Fault{Op: vfs.OpRemove, Path: filepath.Base(dir), N: 1, Kind: vfs.KindFail})
	if _, _, _, err := g.ensureSeed(); !errors.Is(err, vfs.ErrInjected) {
		t.Fatalf("ensureSeed over an unremovable seed directory = %v, want the injected fault", err)
	}
	// The first removal is the one that failed, so the stale seed is
	// whole: a removal that went around the injector would have emptied
	// the directory before anything could fail.
	after, err := os.ReadDir(dir)
	if err != nil || len(after) != len(before) {
		t.Fatalf("seed directory after the failed removal: %d entries, %v; want the %d it held", len(after), err, len(before))
	}
	inj.SetFaults()
	dir2, base2, _, err := g.ensureSeed()
	if err != nil {
		t.Fatalf("ensureSeed on a healthy disk after the fault: %v", err)
	}
	if dir2 != dir || base2 <= base {
		t.Fatalf("re-export gave (%s, base %d), want %s past base %d", dir2, base2, dir, base)
	}
}
