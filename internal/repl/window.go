package repl

import "sort"

type histEntry struct {
	e   Entry
	ops int // ops in the batch
}

// window is the leader's resend history: the live entries, ascending in
// Index, as a slice sliding up one backing array. push and trim move no
// entries; once the slice reaches the end of the array the live entries
// are copied back to its start — one move per entry per lap, so O(1)
// amortised — and nothing is allocated at steady state.
//
// The window is bounded in ops (Config.historyEntries), and every entry
// holds at least one, so the array's 2 × historyEntries slots cover the
// steady state whatever the batch sizes. It is replaced by a larger one
// only while more than half of it is live, which takes more than
// historyEntries un-trimmable entries (uncommitted batches, or a
// promoted follower's longer log), and by one of the steady-state size
// again once that backlog has been trimmed.
//
// Slots outside live are zero, so a trimmed entry's Batch bytes are
// collectable; the Batch buffers themselves are never written to,
// because in-flight AppendRequests alias them.
type window struct {
	buf    []histEntry
	live   []histEntry // buf[lo:hi:len(buf)]
	ops    int         // ops held by the live entries
	steady int         // len(buf) at steady state: 2 × historyEntries
}

func newWindow(historyEntries int) window {
	buf := make([]histEntry, 2*historyEntries)
	return window{buf: buf, live: buf[:0], steady: len(buf)}
}

func (w *window) push(e histEntry) {
	if len(w.live) == cap(w.live) {
		w.makeRoom()
	}
	w.live = append(w.live, e) // in place: makeRoom left spare capacity
	w.ops += e.ops
}

// makeRoom moves the live entries to the start of a backing array they
// fill at most half of: the current one, or a larger or smaller one by
// the rule in the type comment.
func (w *window) makeRoom() {
	n := len(w.live)
	switch {
	case 2*n > len(w.buf):
		w.buf = make([]histEntry, 2*len(w.buf))
		copy(w.buf, w.live)
	case len(w.buf) > w.steady && 2*n <= w.steady:
		w.buf = make([]histEntry, w.steady)
		copy(w.buf, w.live)
	default:
		// live ends where buf ends and fills at most half of it, so
		// source and destination are disjoint.
		copy(w.buf, w.live)
		clear(w.live)
	}
	w.live = w.buf[:n]
}

// trim drops the n oldest entries.
func (w *window) trim(n int) {
	w.drop(w.live[:n])
	w.live = w.live[n:]
}

// truncate drops every entry from position n on.
func (w *window) truncate(n int) {
	w.drop(w.live[n:])
	w.live = w.live[:n]
}

// drop zeroes the slots of the live entries es and uncounts their ops.
func (w *window) drop(es []histEntry) {
	for _, h := range es {
		w.ops -= h.ops
	}
	clear(es)
}

// search returns the position of the first entry with index >= idx.
func (w *window) search(idx uint64) int {
	return sort.Search(len(w.live), func(i int) bool { return w.live[i].e.Index >= idx })
}
