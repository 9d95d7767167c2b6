package engine

import (
	"errors"
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"time"

	"github.com/onioncurve/onion/internal/curve"
	"github.com/onioncurve/onion/internal/pagedstore"
	"github.com/onioncurve/onion/internal/telemetry"
)

// RepairReport summarizes one Repair pass over the quarantine.
type RepairReport struct {
	Attempted  int      // quarantined segment files examined
	Repaired   int      // of those, replaced by a fresh clean segment (or retired empty)
	Salvaged   int      // records recovered from CRC-clean pages of condemned files
	Backfilled int      // records restored from the snapshot chain
	Unrepaired []string // base names still quarantined (and why repair could not finish)
	Health     Health   // the engine's health after the pass
}

// Repair salvages the quarantine: for every condemned segment file it
// recovers the records of all CRC-clean pages, back-fills the damaged
// key intervals from the snapshot at snapshotDir (which must predate the
// corruption), writes the union out as a fresh segment installed in the
// condemned segment's place, and deletes the condemned file. Because
// records cluster along the curve, each damaged page is one contiguous
// key interval, so the back-fill reads only the matching slice of the
// snapshot — interval arithmetic, not a rescan.
//
// A segment is repaired only when the snapshot provably holds the
// damaged intervals' content: its segments must tile the condemned
// file's whole generation range, so the newest-wins merge of that slice
// is exactly what the condemned segment stored there — versions are
// neither resurrected nor lost relative to the rest of the live set.
// Files that cannot be fully repaired stay quarantined and are listed in
// the report; an empty snapshotDir limits Repair to pure salvage (only
// files with no damaged intervals can then be repaired).
//
// After the pass Repair re-runs Verify and, when the quarantine is empty
// and the scrub is clean, lowers Degraded back to Healthy.
func (e *Engine) Repair(snapshotDir string) (RepairReport, error) {
	start := time.Now()
	e.emitEvent(telemetry.Event{Kind: telemetry.EvRepair, Phase: telemetry.PhaseStart, Detail: snapshotDir})
	e.flushMu.Lock()
	rep, err := e.repairLocked(snapshotDir)
	e.flushMu.Unlock()
	if tel := e.tel; tel != nil && err == nil {
		tel.repairs.Inc()
		tel.repairUS.Record(uint64(time.Since(start).Microseconds()))
		tel.salvaged.Add(uint64(rep.Salvaged))
		tel.backfilled.Add(uint64(rep.Backfilled))
	}
	if err != nil {
		e.emitEvent(telemetry.Event{Kind: telemetry.EvRepair, Phase: telemetry.PhaseEnd,
			Dur: time.Since(start), Err: errString(err)})
		rep.Health, _ = e.health.get()
		return rep, err
	}
	if h, _ := e.health.get(); h == Degraded {
		// Re-scrub and de-escalate if the quarantine is now empty. A
		// still-Degraded outcome is state, not failure: it rides in
		// rep.Health and rep.Unrepaired, and TryRecover's reason is the
		// engine's standing cause.
		e.TryRecover() //nolint:errcheck
	}
	rep.Health, _ = e.health.get()
	e.emitEvent(telemetry.Event{Kind: telemetry.EvRepair, Phase: telemetry.PhaseEnd,
		Dur: time.Since(start), Records: int64(rep.Salvaged + rep.Backfilled),
		Detail: fmt.Sprintf("%d/%d repaired, %d salvaged, %d backfilled",
			rep.Repaired, rep.Attempted, rep.Salvaged, rep.Backfilled)})
	return rep, err
}

func (e *Engine) repairLocked(snapshotDir string) (RepairReport, error) {
	var rep RepairReport
	e.mu.RLock()
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return rep, ErrClosed
	}
	qdir := e.quarantinePath()
	ents, err := e.fs.ReadDir(qdir)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return rep, nil // nothing quarantined, nothing to do
		}
		return rep, fmt.Errorf("engine: repair: %w", err)
	}
	var qids []segID
	for _, ent := range ents {
		if ent.IsDir() {
			continue
		}
		var id segID
		name := ent.Name()
		if n, _ := fmt.Sscanf(name, "seg-%d-%d-%d.pst", &id.lo, &id.hi, &id.epoch); n == 3 &&
			name == filepath.Base(segPath(qdir, id.lo, id.hi, id.epoch)) {
			qids = append(qids, id)
		}
	}
	if len(qids) == 0 {
		return rep, nil
	}
	sort.Slice(qids, func(a, b int) bool { return qids[a].lo < qids[b].lo })

	var man *snapManifest
	var snapIDs []segID
	if snapshotDir != "" {
		var err error
		man, err = readSnapshotManifest(e.fs, snapshotDir, e.id)
		if err != nil {
			return rep, err
		}
		for _, s := range man.segs {
			snapIDs = append(snapIDs, s.id)
		}
	}

	var firstErr error
	for _, qid := range qids {
		rep.Attempted++
		name := filepath.Base(segPath(qdir, qid.lo, qid.hi, qid.epoch))
		salv, backf, err := e.repairOne(qdir, qid, snapshotDir, man, snapIDs)
		if err != nil {
			rep.Unrepaired = append(rep.Unrepaired, fmt.Sprintf("%s: %v", name, err))
			if firstErr == nil && !errors.Is(err, errIrreparable) {
				firstErr = err
			}
			continue
		}
		rep.Repaired++
		rep.Salvaged += salv
		rep.Backfilled += backf
	}
	return rep, firstErr
}

// errIrreparable tags a repair skip that is a property of the inputs (no
// snapshot coverage), not an I/O failure: the file stays quarantined and
// the pass continues without surfacing an error.
var errIrreparable = errors.New("engine: not repairable from this snapshot")

// repairOne (flushMu held, so the engine stays open) salvages and
// replaces a single quarantined segment, returning how many records were
// salvaged from clean pages and how many back-filled from the snapshot.
func (e *Engine) repairOne(qdir string, qid segID, snapshotDir string, man *snapManifest, snapIDs []segID) (salvaged, backfilled int, err error) {
	qpath := segPath(qdir, qid.lo, qid.hi, qid.epoch)

	// A crash of an earlier repair may have installed the replacement but
	// not deleted the condemned file: if the live set already covers this
	// generation range, just retire the leftover.
	e.mu.RLock()
	replaced := false
	for _, s := range e.segs {
		if s.lo == qid.lo && s.hi == qid.hi {
			replaced = true
			break
		}
	}
	e.mu.RUnlock()
	if replaced {
		return 0, 0, e.retireQuarantined(qdir, qpath)
	}

	sv, err := pagedstore.SalvageFS(e.fs, qpath, e.c)
	if err != nil {
		return 0, 0, err
	}
	entries := sv.Entries

	if len(sv.Damaged) > 0 {
		if snapshotDir == "" {
			return 0, 0, fmt.Errorf("%w: %d damaged intervals and no snapshot", errIrreparable, len(sv.Damaged))
		}
		// The snapshot must tile the condemned segment's generation range:
		// only then is the newest-wins merge of its covering segments,
		// restricted to the damaged intervals, exactly the lost content.
		covering := coveringSegs(snapIDs, qid)
		if covering == nil {
			return 0, 0, fmt.Errorf("%w: snapshot does not cover generations [%d,%d]", errIrreparable, qid.lo, qid.hi)
		}
		fill, err := e.backfill(snapshotDir, man, covering, sv.Damaged)
		if err != nil {
			return 0, 0, err
		}
		backfilled = len(fill)
		entries = append(entries, fill...)
		sort.Slice(entries, func(a, b int) bool { return entries[a].Key < entries[b].Key })
	}
	salvaged = len(entries) - backfilled

	if len(entries) > 0 {
		seg, err := writeSegment(e.fs, e.dir, e.c, segID{lo: qid.lo, hi: qid.hi, epoch: qid.epoch + 1}, entries, e.opts.PageBytes, e.cache)
		if err != nil {
			return 0, 0, err
		}
		// Install at the segment's age position: list order is merge
		// priority, and generation ranges are disjoint, so sorting by lo
		// is sorting by age.
		e.mu.Lock()
		at := sort.Search(len(e.segs), func(i int) bool { return e.segs[i].lo > seg.lo })
		e.segs = append(e.segs, nil)
		copy(e.segs[at+1:], e.segs[at:])
		e.segs[at] = seg
		e.mu.Unlock()
	}
	return salvaged, backfilled, e.retireQuarantined(qdir, qpath)
}

// retireQuarantined deletes a condemned file whose replacement (if any)
// is durably installed, and makes the removal durable.
func (e *Engine) retireQuarantined(qdir, qpath string) error {
	if err := e.fs.Remove(qpath); err != nil {
		return fmt.Errorf("engine: repair: %w", err)
	}
	return syncDir(e.fs, qdir)
}

// coveringSegs returns the snapshot segments whose generation ranges
// tile qid's range exactly, oldest first — or nil if the snapshot does
// not cover every generation.
func coveringSegs(snapIDs []segID, qid segID) []segID {
	var in []segID
	for _, id := range snapIDs {
		if id.lo >= qid.lo && id.hi <= qid.hi {
			in = append(in, id)
		}
	}
	sort.Slice(in, func(a, b int) bool { return in[a].lo < in[b].lo })
	next := qid.lo
	for _, id := range in {
		if id.lo > next {
			return nil
		}
		if id.hi >= qid.hi {
			return in
		}
		next = id.hi + 1
	}
	return nil
}

// backfill merges the covering snapshot segments (newest wins, tombstones
// kept — the repaired range may shadow older live segments) and keeps
// only the records inside the damaged intervals.
func (e *Engine) backfill(snapshotDir string, man *snapManifest, covering []segID, damaged []curve.KeyRange) ([]pagedstore.Entry, error) {
	segs := make([]*segment, 0, len(covering))
	defer func() {
		for _, s := range segs {
			s.st.Close()
		}
	}()
	for _, id := range covering {
		name := filepath.Base(segPath(snapshotDir, id.lo, id.hi, id.epoch))
		var want snapSeg
		for _, s := range man.segs {
			if s.name == name {
				want = s
				break
			}
		}
		src, err := resolveSnapshotSegment(e.fs, snapshotDir, man, want)
		if err != nil {
			return nil, err
		}
		st, err := pagedstore.OpenCachedFS(e.fs, src, e.c, nil)
		if err != nil {
			return nil, fmt.Errorf("engine: repair: snapshot segment %s: %w", name, err)
		}
		segs = append(segs, &segment{st: st, path: src, lo: id.lo, hi: id.hi, epoch: id.epoch, recs: st.Len()})
	}
	merged, _, err := mergeSegments(e.c, segs, false)
	if err != nil {
		return nil, err
	}
	fill := merged[:0]
	di := 0
	for _, ent := range merged {
		for di < len(damaged) && damaged[di].Hi < ent.Key {
			di++
		}
		if di < len(damaged) && damaged[di].Lo <= ent.Key {
			fill = append(fill, ent)
		}
	}
	return fill, nil
}
