package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"github.com/onioncurve/onion/internal/repl"
	"github.com/onioncurve/onion/internal/vfs"
)

// spanKind names a layer boundary the traced run records.
type spanKind uint8

const (
	spanOp         spanKind = iota // one end-to-end operation
	spanPlan                       // ranges.plan: the planner on the op's rectangle
	spanRead                       // vfs.read
	spanWrite                      // vfs.write
	spanFsync                      // vfs.fsync (file or directory)
	spanReplAppend                 // repl.append: one Transport.Append round trip
	spanIngestAck                  // ingest.enqueue -> ingest.ack of one put
	spanKinds
)

var spanNames = [spanKinds]string{"op", "ranges.plan", "vfs.read", "vfs.write", "vfs.fsync", "repl.append", "ingest.ack"}

// span is one recorded interval. op is the id of the end-to-end operation
// that caused it (0: background work no single operation owns); the parent
// of every span that is not itself an op is the op span with that id.
type span struct {
	kind       spanKind
	op         uint32
	start, end int64 // ns since the recorder's epoch
}

// recorder keeps the spans of a traced run in memory; they are aggregated,
// and written out if -spans asks for it, only after the last round.
type recorder struct {
	epoch time.Time
	// cur is the query in flight. The read workloads and mixed have one
	// reader, so a vfs.read that happens while cur is set belongs to that
	// query — or, on mixed, to a flush or compaction that overlapped it.
	cur atomic.Uint32

	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), spans: make([]span, 0, 1<<20)}
}

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

func (r *recorder) add(kind spanKind, op uint32, start, end int64) {
	r.mu.Lock()
	r.spans = append(r.spans, span{kind, op, start, end})
	r.mu.Unlock()
}

// snapshot copies the spans recorded so far; background work may still be
// adding to them.
func (r *recorder) snapshot() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return slices.Clone(r.spans)
}

// dumpSpans writes the spans of a traced run as tab-separated text.
func dumpSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "name\tstart_ns\tend_ns\tparent\top")
	for _, s := range spans {
		parent := "-"
		if s.kind != spanOp && s.op != 0 {
			parent = "op"
		}
		fmt.Fprintf(w, "%s\t%d\t%d\t%s\t%d\n", spanNames[s.kind], s.start, s.end, parent, s.op)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceFS wraps the filesystem seam: every read, write and fsync below it
// becomes a span and a count.
type traceFS struct {
	vfs.FS
	rec *recorder

	readBytes, writeBytes atomic.Int64
}

func (t *traceFS) Open(name string) (vfs.File, error) {
	f, err := t.FS.Open(name)
	if err != nil {
		return nil, err
	}
	return &traceFile{f, t}, nil
}

func (t *traceFS) Create(name string) (vfs.File, error) {
	f, err := t.FS.Create(name)
	if err != nil {
		return nil, err
	}
	return &traceFile{f, t}, nil
}

func (t *traceFS) SyncDir(name string) error {
	start := t.rec.now()
	err := t.FS.SyncDir(name)
	t.rec.add(spanFsync, 0, start, t.rec.now())
	return err
}

// Link keeps snapshot export on the hardlink path it takes on vfs.OS; without
// it a traced follower seed would copy every segment.
func (t *traceFS) Link(oldname, newname string) error {
	return t.FS.(vfs.Linker).Link(oldname, newname)
}

type traceFile struct {
	vfs.File
	t *traceFS
}

func (f *traceFile) ReadAt(p []byte, off int64) (int, error) {
	rec := f.t.rec
	start := rec.now()
	n, err := f.File.ReadAt(p, off)
	rec.add(spanRead, rec.cur.Load(), start, rec.now())
	f.t.readBytes.Add(int64(n))
	return n, err
}

func (f *traceFile) Write(p []byte) (int, error) {
	rec := f.t.rec
	start := rec.now()
	n, err := f.File.Write(p)
	rec.add(spanWrite, 0, start, rec.now())
	f.t.writeBytes.Add(int64(n))
	return n, err
}

func (f *traceFile) Sync() error {
	rec := f.t.rec
	start := rec.now()
	err := f.File.Sync()
	rec.add(spanFsync, 0, start, rec.now())
	return err
}

// traceTransport wraps the replication seam: every Append is a span, and
// the entries it carried are counted.
type traceTransport struct {
	repl.Transport
	rec     *recorder
	entries atomic.Int64
}

func (t *traceTransport) Append(peer string, req repl.AppendRequest) (repl.AppendResponse, error) {
	start := t.rec.now()
	resp, err := t.Transport.Append(peer, req)
	t.rec.add(spanReplAppend, 0, start, t.rec.now())
	t.entries.Add(int64(len(req.Entries)))
	return resp, err
}

// tracer is the traced run's instrumentation: the recorder and the two
// wrapped seams that feed it.
type tracer struct {
	rec       *recorder
	fs        *traceFS
	transport *traceTransport
}

func newTracer() *tracer {
	rec := newRecorder()
	return &tracer{rec, &traceFS{FS: vfs.OS{}, rec: rec}, &traceTransport{rec: rec}}
}

// reset drops what set-up and warm-up recorded, so that what remains
// describes the timed rounds only.
func (t *tracer) reset() {
	t.rec.mu.Lock()
	t.rec.spans = t.rec.spans[:0]
	t.rec.mu.Unlock()
	t.fs.readBytes.Store(0)
	t.fs.writeBytes.Store(0)
	t.transport.entries.Store(0)
}
