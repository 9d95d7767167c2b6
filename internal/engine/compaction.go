package engine

import (
	"fmt"
	"time"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/pagedstore"
	"github.com/onioncurve/onion/internal/telemetry"
)

// pickCompaction applies the size-tiered policy to the segment record
// counts (oldest first): it returns the first (oldest) window of fanout
// age-adjacent segments whose sizes are within sizeRatio of the window's
// smallest, or (0, 0) when no window qualifies. Merging only age-adjacent
// runs keeps recency resolvable from file generations alone.
func pickCompaction(recs []int, fanout, sizeRatio int) (lo, hi int) {
	if fanout < 2 || len(recs) < fanout {
		return 0, 0
	}
	for start := 0; start+fanout <= len(recs); start++ {
		min := recs[start]
		max := recs[start]
		ok := true
		for i := start + 1; i < start+fanout; i++ {
			if recs[i] < min {
				min = recs[i]
			}
			if recs[i] > max {
				max = recs[i]
			}
		}
		if min*sizeRatio < max {
			ok = false
		}
		if ok {
			// Extend the window greedily while the ratio holds.
			end := start + fanout
			for end < len(recs) {
				nmin, nmax := min, max
				if recs[end] < nmin {
					nmin = recs[end]
				}
				if recs[end] > nmax {
					nmax = recs[end]
				}
				if nmin*sizeRatio < nmax {
					break
				}
				min, max = nmin, nmax
				end++
			}
			return start, end
		}
	}
	return 0, 0
}

// compactSink collects the merged stream of a compaction: the winning
// entries, in key order.
type compactSink struct {
	out            []pagedstore.Entry
	dropTombstones bool
	dropped        int // tombstones garbage-collected (dropTombstones only)
}

func (cs *compactSink) emit(win *mergeSource) {
	if win.head.Marked && cs.dropTombstones {
		cs.dropped++
		return
	}
	cs.out = append(cs.out, win.head)
}

// mergeSegments k-way merges an age-adjacent run of segments (oldest
// first) into its newest-wins, key-ordered union, through the same
// mergeSources routine the query path uses. Tombstones are dropped when
// dropTombstones is set (legal only when the run includes the engine's
// oldest segment, so nothing older could be shadowed); otherwise they are
// carried into the output.
func mergeSegments(c curve.Curve, segs []*segment, dropTombstones bool) ([]pagedstore.Entry, int, error) {
	full := []curve.KeyRange{{Lo: 0, Hi: c.Universe().Size() - 1}}
	srcs := make([]*mergeSource, len(segs))
	for i, s := range segs {
		cur := s.st.NewCursor()
		cur.Plan(full)
		cur.NextRange()
		srcs[i] = &mergeSource{cur: cur, prio: i}
	}
	sink := &compactSink{dropTombstones: dropTombstones}
	var scratch []*mergeSource
	if err := mergeSources(srcs, &scratch, sink, nil); err != nil {
		return nil, 0, err
	}
	return sink.out, sink.dropped, nil
}

// maybeCompact applies the size-tiered policy once and merges the chosen
// run, if any. It is called from the background worker after flushes.
func (e *Engine) maybeCompact() error {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		return ErrClosed
	}
	recs := make([]int, len(e.segs))
	for i, s := range e.segs {
		recs[i] = s.recs
	}
	e.mu.RUnlock()
	lo, hi := pickCompaction(recs, e.opts.compactFanout, 4)
	if hi == 0 {
		return nil
	}
	return e.compactRun(lo, hi)
}

// Compact merges every live segment into a single one, garbage-collecting
// all tombstones — a full major compaction. After Compact (and a Flush
// beforehand, if the memtable holds data) the engine's disk state is a
// single curve-ordered segment containing exactly the live records, laid
// out page-for-page as a freshly bulk-loaded pagedstore of those records
// would be.
func (e *Engine) Compact() error {
	e.flushMu.Lock()
	defer e.flushMu.Unlock()
	e.mu.RLock()
	n := len(e.segs)
	closed := e.closed
	hasTombs := false
	for _, s := range e.segs {
		if s.st.Marked() {
			hasTombs = true
		}
	}
	e.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if n == 0 || (n == 1 && !hasTombs) {
		return nil // already fully compacted
	}
	return e.compactRun(0, n)
}

// compactRun merges segments [lo, hi) of the current list into one. The
// caller holds flushMu, which is what freezes the segment list's identity
// in [lo, hi): only flushes append (beyond hi) and only compactions
// remove, and both hold flushMu. Both callers saw the engine open under
// flushMu, which Close holds to mark it closed.
func (e *Engine) compactRun(lo, hi int) error {
	e.mu.RLock()
	run := append([]*segment{}, e.segs[lo:hi]...)
	e.mu.RUnlock()
	recsIn := 0
	for _, s := range run {
		recsIn += s.recs
	}
	start := time.Now()
	e.emitEvent(telemetry.Event{Kind: telemetry.EvCompaction, Phase: telemetry.PhaseStart,
		Records: int64(recsIn), Detail: fmt.Sprintf("%d segments", len(run))})
	outRecs, err := e.compactMerge(lo, hi, run, recsIn)
	dur := time.Since(start)
	if tel := e.tel; tel != nil && err == nil {
		tel.compactUS.Record(uint64(dur.Microseconds()))
	}
	e.emitEvent(telemetry.Event{Kind: telemetry.EvCompaction, Phase: telemetry.PhaseEnd,
		Dur: dur, Records: int64(outRecs), Err: errString(err)})
	return err
}

// compactMerge is compactRun's body: merge the run, install the output,
// retire the inputs. It returns the number of records in the merged
// output.
func (e *Engine) compactMerge(lo, hi int, run []*segment, recsIn int) (int, error) {
	dropTombstones := lo == 0
	merged, dropped, err := mergeSegments(e.c, run, dropTombstones)
	if err != nil {
		return 0, err
	}
	id := segID{lo: run[0].lo, hi: run[len(run)-1].hi}
	if len(run) == 1 {
		// In-place rewrite (tombstone GC of a lone segment): same data
		// age, next epoch, so the new file never collides with the old
		// and a crash between rename and delete is repaired by scanDir.
		id.epoch = run[0].epoch + 1
	}
	var out *segment
	if len(merged) > 0 {
		out, err = writeSegment(e.fs, e.dir, e.c, id, merged, e.opts.PageBytes, e.cache)
		if err != nil {
			return 0, err
		}
	}
	// Install: replace the run with the merged segment.
	e.mu.Lock()
	tail := append([]*segment{}, e.segs[hi:]...)
	e.segs = append(e.segs[:lo:lo], append(segList(out), tail...)...)
	e.mu.Unlock()
	// Retire inputs only after the output is installed; a crash in
	// between leaves both, and scanDir removes the contained inputs.
	var firstErr error
	for _, s := range run {
		if err := s.st.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
		if err := e.fs.Remove(s.path); err != nil && firstErr == nil {
			firstErr = fmt.Errorf("engine: %w", err)
		}
	}
	e.compactions.Add(1)
	if tel := e.tel; tel != nil {
		tel.compactSegsIn.Add(uint64(len(run)))
		tel.compactRecordsIn.Add(uint64(recsIn))
		tel.compactRecordsOut.Add(uint64(len(merged)))
		tel.compactTombsGC.Add(uint64(dropped))
	}
	return len(merged), firstErr
}

func segList(s *segment) []*segment {
	if s == nil {
		return nil
	}
	return []*segment{s}
}
