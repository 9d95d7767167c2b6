package onion_test

import (
	"encoding/hex"
	"errors"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	onion "github.com/onioncurve/onion"
	"github.com/onioncurve/onion/internal/engine"
	"github.com/onioncurve/onion/internal/repl"
	"github.com/onioncurve/onion/internal/vfs"
)

// identityEngine opens an engine at dir on c, writes a few points of c's
// universe, flushes them into a segment and leaves one more in the WAL.
func identityEngine(t *testing.T, dir string, c onion.Curve) *onion.Engine {
	t.Helper()
	e, err := onion.OpenEngine(dir, c, onion.EngineOptions{FlushEntries: -1})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 3; k++ {
		if k == 2 {
			if err := e.Flush(); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.Put(c.Coords(k*37%c.Universe().Size(), nil), k); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

// quarantineOne rots a page of the one segment of the engine e at dir
// and has Verify quarantine it, so Repair has a file to rebuild.
func quarantineOne(t *testing.T, dir string, e *onion.Engine) {
	t.Helper()
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.pst"))
	if len(segs) != 1 {
		t.Fatalf("%d segments, want 1", len(segs))
	}
	data, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x40
	if err := os.WriteFile(segs[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if rep, err := e.Verify(); err != nil || len(rep.Quarantined) != 1 {
		t.Fatalf("verify: %+v, %v", rep, err)
	}
}

// snapshotOf writes an engine on c and exports a snapshot of it to dir.
func snapshotOf(t *testing.T, dir string, c onion.Curve) {
	t.Helper()
	e := identityEngine(t, filepath.Join(t.TempDir(), "src"), c)
	defer e.Close()
	if _, err := e.Snapshot(dir); err != nil {
		t.Fatal(err)
	}
}

// recordingFollower passes requests to a follower and keeps the first
// error it answers an append with.
type recordingFollower struct {
	*repl.Follower
	mu  sync.Mutex
	err error
}

func (r *recordingFollower) HandleAppend(req repl.AppendRequest) (repl.AppendResponse, error) {
	resp, err := r.Follower.HandleAppend(req)
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
	return resp, err
}

// TestEveryDirectoryRefusesAnotherCurve writes every kind of directory,
// snapshot or stream that carries curve keys under one curve and hands it
// to code running another, for two pairs: two different curves of one
// universe, and two Onion3D segment orders of one name that differ only
// from key 722 on (an eight-key probe cannot tell them apart). Each must fail with ErrCurveMismatch, and with the error callers
// matched on before wherever there was one.
func TestEveryDirectoryRefusesAnotherCurve(t *testing.T) {
	must := func(c onion.Curve, err error) onion.Curve {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	pairs := []struct {
		name string
		a, b onion.Curve
	}{
		{"hilbert-onion2d", must(onion.NewHilbert(2, 16)), must(onion.NewOnion2D(16))},
		{"onion3d-orders", must(onion.NewOnion3D(16)),
			must(onion.NewOnion3DWithSegmentOrder(16, [10]int{1, 2, 3, 4, 7, 5, 6, 8, 9, 10}))},
	}
	sharded := onion.ShardedEngineOptions{Shards: 2}
	rows := []struct {
		kind string
		also error // the error the row wraps besides ErrCurveMismatch
		// run writes with a and returns the error of reading with b.
		run func(t *testing.T, a, b onion.Curve) error
	}{
		{"engine dir", nil, func(t *testing.T, a, b onion.Curve) error {
			dir := t.TempDir()
			if err := identityEngine(t, dir, a).Close(); err != nil {
				t.Fatal(err)
			}
			_, err := onion.OpenEngine(dir, b, onion.EngineOptions{})
			return err
		}},
		{"bulk-loaded store", nil, func(t *testing.T, a, b onion.Curve) error {
			dir := filepath.Join(t.TempDir(), "store")
			recs := []onion.Record{{Point: a.Coords(5, nil), Payload: 5}, {Point: a.Coords(200, nil), Payload: 200}}
			if err := onion.WriteStore(dir, a, recs, 4096); err != nil {
				t.Fatal(err)
			}
			_, err := onion.OpenEngine(dir, b, onion.EngineOptions{})
			return err
		}},
		{"sharded dir", onion.ErrShardManifest, func(t *testing.T, a, b onion.Curve) error {
			dir := t.TempDir()
			s, err := onion.OpenShardedEngine(dir, a, sharded)
			if err != nil {
				t.Fatal(err)
			}
			if err := s.Put(a.Coords(5, nil), 5); err != nil {
				t.Fatal(err)
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			_, err = onion.OpenShardedEngine(dir, b, sharded)
			return err
		}},
		{"restore", onion.ErrSnapshot, func(t *testing.T, a, b onion.Curve) error {
			snap := filepath.Join(t.TempDir(), "snap")
			snapshotOf(t, snap, a)
			_, err := onion.RestoreEngine(snap, filepath.Join(t.TempDir(), "restored"), -1, b, onion.EngineOptions{})
			return err
		}},
		{"sharded restore", onion.ErrShardedSnapshot, func(t *testing.T, a, b onion.Curve) error {
			snap := filepath.Join(t.TempDir(), "snap")
			s, err := onion.OpenShardedEngine(t.TempDir(), a, sharded)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if _, err := s.Snapshot(snap); err != nil {
				t.Fatal(err)
			}
			_, err = onion.RestoreShardedEngine(snap, filepath.Join(t.TempDir(), "restored"), -1, b, sharded)
			return err
		}},
		{"snapshot parent", onion.ErrSnapshot, func(t *testing.T, a, b onion.Curve) error {
			parent := filepath.Join(t.TempDir(), "parent")
			snapshotOf(t, parent, a)
			e := identityEngine(t, t.TempDir(), b)
			defer e.Close()
			_, err := e.SnapshotSince(filepath.Join(t.TempDir(), "child"), parent)
			return err
		}},
		{"repair source", onion.ErrSnapshot, func(t *testing.T, a, b onion.Curve) error {
			snap := filepath.Join(t.TempDir(), "snap")
			snapshotOf(t, snap, a)
			dir := t.TempDir()
			e := identityEngine(t, dir, b)
			defer e.Close()
			quarantineOne(t, dir, e)
			_, err := e.Repair(snap)
			return err
		}},
		{"seed", onion.ErrSnapshot, func(t *testing.T, a, b onion.Curve) error {
			seed := filepath.Join(t.TempDir(), "seed")
			src := identityEngine(t, t.TempDir(), a)
			defer src.Close()
			if _, err := engine.ExportSeed(src, seed); err != nil {
				t.Fatal(err)
			}
			f, err := onion.OpenReplFollower("f1", t.TempDir(), b, onion.ReplFollowerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			_, err = f.HandleSeed(repl.SeedRequest{Epoch: 1, LeaderID: "leader", Snapshot: seed, Base: 3, BaseEpoch: 1})
			return err
		}},
		{"follower dir", nil, func(t *testing.T, a, b onion.Curve) error {
			dir := t.TempDir()
			f, err := onion.OpenReplFollower("f1", dir, a, onion.ReplFollowerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}
			_, err = onion.OpenReplFollower("f1", dir, b, onion.ReplFollowerOptions{})
			return err
		}},
		{"append", nil, func(t *testing.T, a, b onion.Curve) error {
			f, err := onion.OpenReplFollower("f1", t.TempDir(), b, onion.ReplFollowerOptions{})
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			rec := &recordingFollower{Follower: f}
			lb := onion.NewReplLoopback()
			lb.Register("f1", rec)
			g, err := onion.LeadReplicated(t.TempDir(), a, onion.ReplConfig{ID: "leader", Peers: []string{"f1"}, Transport: lb})
			if err != nil {
				t.Fatal(err)
			}
			defer g.Close()
			if err := g.Engine().Put(a.Coords(5, nil), 5); !errors.Is(err, onion.ErrQuorum) {
				t.Fatalf("a write no follower accepts: %v, want ErrQuorum", err)
			}
			rec.mu.Lock()
			defer rec.mu.Unlock()
			return rec.err
		}},
	}
	for _, p := range pairs {
		for _, r := range rows {
			t.Run(p.name+"/"+strings.ReplaceAll(r.kind, " ", "-"), func(t *testing.T) {
				err := r.run(t, p.a, p.b)
				if !errors.Is(err, onion.ErrCurveMismatch) {
					t.Fatalf("%s written by %s, read by %s: %v, want ErrCurveMismatch",
						r.kind, p.a.Name(), p.b.Name(), err)
				}
				if r.also != nil && !errors.Is(err, r.also) {
					t.Fatalf("%s: %v, want it to wrap %v too", r.kind, err, r.also)
				}
			})
		}
	}
}

// readCounter is a filesystem that counts the bytes read from the files
// of one base name.
type readCounter struct {
	vfs.FS
	name string
	read atomic.Int64
}

func (r *readCounter) Open(name string) (vfs.File, error) {
	f, err := r.FS.Open(name)
	if err != nil || filepath.Base(name) != r.name {
		return f, err
	}
	return countingFile{f, &r.read}, nil
}

type countingFile struct {
	vfs.File
	read *atomic.Int64
}

func (f countingFile) ReadAt(p []byte, off int64) (int, error) {
	n, err := f.File.ReadAt(p, off)
	f.read.Add(int64(n))
	return n, err
}

// TestHostileIdentityRecords hands every file that records a curve
// identity damaged or foreign bytes: empty, cut short, a number that is
// not one, a fingerprint of the wrong length, a zero fingerprint, extra
// lines, and one and four megabytes of garbage. These are input from
// outside the program: each must fail with the file kind's named error,
// none may panic, and none may be read past its kind's size bound — at
// most the engine snapshot manifest's 1 MiB and the one byte more that
// shows a file oversized — so the four megabytes are never read whole.
func TestHostileIdentityRecords(t *testing.T) {
	c, err := onion.NewOnion2D(16)
	if err != nil {
		t.Fatal(err)
	}
	sharded := onion.ShardedEngineOptions{Shards: 2}
	// Each kind builds a good directory, names the file that records the
	// identity in it, and reads the directory back.
	kinds := []struct {
		name  string
		file  string
		named error
		build func(t *testing.T, dir string)
		read  func(dir string, fsys vfs.FS) error
	}{
		{"engine CURVE", "CURVE", onion.ErrCurveIdentity,
			func(t *testing.T, dir string) {
				if err := identityEngine(t, dir, c).Close(); err != nil {
					t.Fatal(err)
				}
			},
			func(dir string, fsys vfs.FS) error {
				_, err := onion.OpenEngine(dir, c, onion.EngineOptions{FS: fsys})
				return err
			}},
		{"sharded MANIFEST", "MANIFEST", onion.ErrShardManifest,
			func(t *testing.T, dir string) {
				s, err := onion.OpenShardedEngine(dir, c, sharded)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
			},
			func(dir string, fsys vfs.FS) error {
				opts := sharded
				opts.FS = fsys
				_, err := onion.OpenShardedEngine(dir, c, opts)
				return err
			}},
		{"snapshot", "SNAPSHOT", onion.ErrSnapshot,
			func(t *testing.T, dir string) { snapshotOf(t, dir, c) },
			func(dir string, fsys vfs.FS) error {
				_, err := onion.RestoreEngine(dir, dir+"-restored", -1, c, onion.EngineOptions{FS: fsys})
				return err
			}},
		{"sharded snapshot", "SNAPSHOT", onion.ErrShardedSnapshot,
			func(t *testing.T, dir string) {
				s, err := onion.OpenShardedEngine(dir+"-src", c, sharded)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if _, err := s.Snapshot(dir); err != nil {
					t.Fatal(err)
				}
			},
			func(dir string, fsys vfs.FS) error {
				opts := sharded
				opts.FS = fsys
				_, err := onion.RestoreShardedEngine(dir, dir+"-restored", -1, c, opts)
				return err
			}},
	}
	mutations := []struct {
		name string
		edit func(good string) string
	}{
		{"empty", func(string) string { return "" }},
		{"truncated", func(g string) string { return g[:strings.Index(g, "fingerprint")+15] }},
		{"non-numeric", func(g string) string { return strings.Replace(g, "dims 2\n", "dims two\n", 1) }},
		{"short fingerprint", func(g string) string {
			i := strings.Index(g, "fingerprint ") + len("fingerprint ")
			return g[:i] + g[i+1:]
		}},
		{"zero fingerprint", func(g string) string {
			i := strings.Index(g, "fingerprint ") + len("fingerprint ")
			return g[:i] + "0000000000000000" + g[i+16:]
		}},
		{"extra lines", func(g string) string { return g + "curve hilbert\nextra\n" }},
		{"oversized", func(g string) string { return g + strings.Repeat("x", 1<<20) + "\n" }},
		{"far oversized", func(g string) string { return g + strings.Repeat("x", 4<<20) + "\n" }},
	}
	for _, k := range kinds {
		for _, m := range mutations {
			t.Run(strings.ReplaceAll(k.name, " ", "-")+"/"+strings.ReplaceAll(m.name, " ", "-"), func(t *testing.T) {
				dir := filepath.Join(t.TempDir(), "d")
				k.build(t, dir)
				path := filepath.Join(dir, k.file)
				good, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(m.edit(string(good))), 0o644); err != nil {
					t.Fatal(err)
				}
				rc := &readCounter{FS: vfs.OS{}, name: k.file}
				if err := k.read(dir, rc); !errors.Is(err, k.named) {
					t.Fatalf("%s %s: %v, want %v", k.name, m.name, err, k.named)
				}
				if n := rc.read.Load(); n > 1<<20+1 {
					t.Fatalf("%s %s: read %d bytes of %s, more than any bound", k.name, m.name, n, k.file)
				}
			})
		}
	}
}

// treeFiles returns the content of every file under dir, keyed by its
// path relative to dir.
func treeFiles(t *testing.T, dir string) map[string]string {
	t.Helper()
	files := map[string]string{}
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path)
		rel, _ := filepath.Rel(dir, path)
		files[rel] = string(data)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// v1Of rewrites the v2 manifest in file the way releases before curve
// fingerprints wrote it: the v1 header and no fingerprint line, and in a
// sharded manifest an eight-key probe line in its place. A composite
// snapshot manifest's embedded directory manifest becomes v1 the same way.
func v1Of(t *testing.T, file string) {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	v2 := string(data)
	i := strings.Index(v2, "fingerprint ")
	if i < 0 {
		t.Fatalf("%s holds no v2 manifest: %q", file, v2)
	}
	j := i + strings.Index(v2[i:], "\n") + 1
	probe := ""
	if strings.Contains(v2, "onion-sharded v2\n") {
		probe = "probe (0,0) (5,1) (9,7) (3,13) (8,10) (8,4) (9,13) (15,0)\n"
	}
	v1 := strings.NewReplacer("onion-sharded v2\n", "onion-sharded v1\n", "onion-snapshot v2\n", "onion-snapshot v1\n").
		Replace(v2[:i] + probe + v2[j:])
	if err := os.WriteFile(file, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestRetiredFormatsAreRefused hands the program every input it no longer
// reads, each under the curve that wrote it: an engine directory with data
// but no CURVE file, a v1 sharded MANIFEST, a v1 engine snapshot manifest
// (restored, as a SnapshotSince parent and as a Repair source), a composite
// snapshot that embeds a v1 directory manifest, and a WAL frame in the
// coordinate op encoding whose CRC holds. Each fails with its named error,
// and leaves every file of the retired input as it was.
func TestRetiredFormatsAreRefused(t *testing.T) {
	c, err := onion.NewOnion2D(16)
	if err != nil {
		t.Fatal(err)
	}
	sharded := onion.ShardedEngineOptions{Shards: 2}
	rows := []struct {
		name  string
		named error
		// build writes the retired input at dir; read reads it back.
		build func(t *testing.T, dir string)
		read  func(t *testing.T, dir string) error
	}{
		{"engine dir without CURVE", onion.ErrCurveIdentity,
			func(t *testing.T, dir string) {
				if err := identityEngine(t, dir, c).Close(); err != nil {
					t.Fatal(err)
				}
				if err := os.Remove(filepath.Join(dir, "CURVE")); err != nil {
					t.Fatal(err)
				}
			},
			func(t *testing.T, dir string) error {
				_, err := onion.OpenEngine(dir, c, onion.EngineOptions{})
				return err
			}},
		{"v1 MANIFEST", onion.ErrShardManifest,
			func(t *testing.T, dir string) {
				s, err := onion.OpenShardedEngine(dir, c, sharded)
				if err != nil {
					t.Fatal(err)
				}
				if err := s.Put(c.Coords(5, nil), 5); err != nil {
					t.Fatal(err)
				}
				if err := s.Close(); err != nil {
					t.Fatal(err)
				}
				v1Of(t, filepath.Join(dir, "MANIFEST"))
			},
			func(t *testing.T, dir string) error {
				_, err := onion.OpenShardedEngine(dir, c, sharded)
				return err
			}},
		{"v1 SNAPSHOT restored", onion.ErrSnapshot,
			func(t *testing.T, dir string) {
				snapshotOf(t, dir, c)
				v1Of(t, filepath.Join(dir, "SNAPSHOT"))
			},
			func(t *testing.T, dir string) error {
				_, err := onion.RestoreEngine(dir, filepath.Join(t.TempDir(), "restored"), -1, c, onion.EngineOptions{})
				return err
			}},
		{"v1 SNAPSHOT parent", onion.ErrSnapshot,
			func(t *testing.T, dir string) {
				snapshotOf(t, dir, c)
				v1Of(t, filepath.Join(dir, "SNAPSHOT"))
			},
			func(t *testing.T, dir string) error {
				e := identityEngine(t, t.TempDir(), c)
				defer e.Close()
				_, err := e.SnapshotSince(filepath.Join(t.TempDir(), "child"), dir)
				return err
			}},
		{"v1 SNAPSHOT repair source", onion.ErrSnapshot,
			func(t *testing.T, dir string) {
				snapshotOf(t, dir, c)
				v1Of(t, filepath.Join(dir, "SNAPSHOT"))
			},
			func(t *testing.T, dir string) error {
				edir := t.TempDir()
				e := identityEngine(t, edir, c)
				defer e.Close()
				quarantineOne(t, edir, e)
				_, err := e.Repair(dir)
				return err
			}},
		{"composite snapshot embedding v1", onion.ErrShardedSnapshot,
			func(t *testing.T, dir string) {
				s, err := onion.OpenShardedEngine(t.TempDir(), c, sharded)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				if _, err := s.Snapshot(dir); err != nil {
					t.Fatal(err)
				}
				v1Of(t, filepath.Join(dir, "SNAPSHOT"))
			},
			func(t *testing.T, dir string) error {
				_, err := onion.RestoreShardedEngine(dir, filepath.Join(t.TempDir(), "restored"), -1, c, sharded)
				return err
			}},
		{"coordinate-tagged WAL", onion.ErrRetiredOp,
			func(t *testing.T, dir string) {
				if err := identityEngine(t, dir, c).Close(); err != nil {
					t.Fatal(err)
				}
				// One put of point (3,5), payload 0x1122334455667788:
				// len | crc32c | tag 1 | two coordinates | payload.
				frame, _ := hex.DecodeString("11000000" + "29783641" + "01" + "03000000" + "05000000" + "8877665544332211")
				if err := os.WriteFile(filepath.Join(dir, "wal-000000000999.log"), frame, 0o644); err != nil {
					t.Fatal(err)
				}
			},
			func(t *testing.T, dir string) error {
				_, err := onion.OpenEngine(dir, c, onion.EngineOptions{})
				return err
			}},
	}
	for _, r := range rows {
		t.Run(strings.ReplaceAll(r.name, " ", "-"), func(t *testing.T) {
			dir := filepath.Join(t.TempDir(), "retired")
			r.build(t, dir)
			before := treeFiles(t, dir)
			if err := r.read(t, dir); !errors.Is(err, r.named) {
				t.Fatalf("%s: %v, want %v", r.name, err, r.named)
			}
			if after := treeFiles(t, dir); !maps.Equal(after, before) {
				t.Fatalf("%s: refusing it changed its files (%d before, %d after)", r.name, len(before), len(after))
			}
		})
	}
}
