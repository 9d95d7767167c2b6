package repl

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sort"
	"testing"
)

// histModel is the reference the window is checked against: the resend
// history as a plain slice that is copied whole on every trim, as the
// code was before the sliding window, plus a record of every index ever
// assigned so epochs resolve without marks.
type histModel struct {
	historyEntries, maxBatch int

	hist     []histEntry
	histBase uint64
	commit   uint64
	assigned []Entry // every index handed out, live or not; Op unused
}

func (m *histModel) append(e histEntry) {
	m.assigned = append(m.assigned, Entry{Index: e.e.Index, Epoch: e.e.Epoch})
	m.hist = append(m.hist, e)
	if len(m.hist) > m.historyEntries {
		drop := len(m.hist) - m.historyEntries
		if committed := m.search(m.commit + 1); drop > committed {
			drop = committed
		}
		if drop > 0 {
			m.histBase = m.hist[drop-1].e.Index
			m.hist = append(m.hist[:0:0], m.hist[drop:]...)
		}
	}
}

func (m *histModel) search(idx uint64) int {
	return sort.Search(len(m.hist), func(i int) bool { return m.hist[i].e.Index >= idx })
}

func (m *histModel) lastEntryIndex() uint64 {
	if n := len(m.hist); n > 0 {
		return m.hist[n-1].e.Index
	}
	return m.histBase
}

func (m *histModel) abandonOrphans() {
	if i := m.search(m.commit + 1); i < len(m.hist) {
		m.hist = m.hist[:i]
	}
}

func (m *histModel) epochOf(index uint64) uint64 {
	var epoch uint64
	for _, a := range m.assigned {
		if a.Index > index {
			break
		}
		epoch = a.Epoch
	}
	return epoch
}

func (m *histModel) lastBySeq(seq uint64) (uint64, bool) {
	var idx uint64
	found := false
	for _, h := range m.hist {
		if h.eseq <= seq {
			idx, found = h.e.Index, true
		}
	}
	return idx, found
}

// resendRun is one Append request of a resend: where it attaches and the
// indices it carries.
type resendRun struct {
	prevIndex, prevEpoch uint64
	indices              []uint64
}

// resend is shipLocked's selection against a follower that accepts
// everything: the runs sent to move ack up to target within shipLocked's
// 64 rounds, and whether it got there or the peer needs a seed.
func (m *histModel) resend(ack, target uint64) (runs []resendRun, ok, needSeed bool) {
	for round := 0; round < 64; round++ {
		if ack >= target {
			return runs, true, false
		}
		if ack < m.histBase {
			return runs, false, true
		}
		i, j := m.search(ack+1), m.search(target+1)
		if j > i+m.maxBatch {
			j = i + m.maxBatch
		}
		run := resendRun{prevIndex: ack, prevEpoch: m.epochOf(ack)}
		for _, h := range m.hist[i:j] {
			run.indices = append(run.indices, h.e.Index)
		}
		runs = append(runs, run)
		ack = m.hist[j-1].e.Index
	}
	return runs, false, false
}

// recordingFollower acknowledges every append and keeps the runs.
type recordingFollower struct{ runs []resendRun }

func (r *recordingFollower) HandleAppend(req AppendRequest) (AppendResponse, error) {
	run := resendRun{prevIndex: req.PrevIndex, prevEpoch: req.PrevEpoch}
	for _, e := range req.Entries {
		run.indices = append(run.indices, e.Index)
	}
	r.runs = append(r.runs, run)
	return AppendResponse{Epoch: req.Epoch, Ok: true, Ack: run.indices[len(run.indices)-1]}, nil
}

func (r *recordingFollower) HandleSeed(SeedRequest) (SeedResponse, error) {
	return SeedResponse{}, fmt.Errorf("unexpected seed")
}

// bareGroup is a Group with the replication state machine only: no
// engine, no catch-up goroutine. appendOp, the history lookups and
// shipLocked need neither.
func bareGroup(historyEntries, maxBatch int, peer *recordingFollower) *Group {
	lb := NewLoopback()
	lb.Register("f1", peer)
	g := &Group{
		cfg: Config{
			ID: "leader", Transport: lb,
			HistoryEntries: historyEntries, maxBatchEntries: maxBatch,
		}.withDefaults(),
		epoch: 1,
		hist:  newWindow(historyEntries),
		peers: []*peerState{{id: "f1"}},
		bell:  make(chan struct{}, 1),
	}
	g.tel = newGroupTelemetry(g)
	return g
}

// TestWindowMatchesCopyOnTrimModel drives a Group's history through
// random appends (single ops, batches, batches larger than the window),
// commit advances, orphan truncation and epoch changes, and after every
// step compares it with the copy-on-trim model: the live entries and
// their Op buffers, histBase, lastEntryIndex, epochOf, the commit
// round's target, and for a peer at a random ack the resend runs or
// the needSeed verdict.
func TestWindowMatchesCopyOnTrimModel(t *testing.T) {
	for _, historyEntries := range []int{4, 64} {
		t.Run(fmt.Sprintf("history%d", historyEntries), func(t *testing.T) {
			rng := rand.New(rand.NewPCG(uint64(historyEntries), 15))
			peer := &recordingFollower{}
			maxBatch := 3 + historyEntries/8 // several requests per resend
			g := bareGroup(historyEntries, maxBatch, peer)
			m := &histModel{historyEntries: historyEntries, maxBatch: maxBatch}
			var eseq uint64

			appendN := func(n int) {
				for ; n > 0; n-- {
					eseq++
					op := []byte{byte(eseq), byte(eseq >> 8)}
					g.appendOp(eseq, op)
					m.append(histEntry{e: Entry{Index: g.nextIndex, Epoch: g.epoch, Op: op}, eseq: eseq})
				}
			}
			// randomLive picks a live index above floor, or 0 if none.
			randomLive := func(floor uint64) uint64 {
				i := m.search(floor + 1)
				if i == len(m.hist) {
					return 0
				}
				return m.hist[i+rng.IntN(len(m.hist)-i)].e.Index
			}

			for step := 0; step < 4000; step++ {
				switch r := rng.IntN(100); {
				case r < 45:
					appendN(1)
				case r < 60:
					appendN(1 + rng.IntN(historyEntries))
				case r < 63:
					appendN(historyEntries + 1 + rng.IntN(2*historyEntries))
				case r < 90:
					if idx := randomLive(m.commit); idx != 0 {
						g.commit, m.commit = idx, idx
					}
				case r < 95:
					g.abandonOrphansLocked()
					m.abandonOrphans()
				default:
					g.epoch++
				}

				if g.histBase != m.histBase || g.lastEntryIndex() != m.lastEntryIndex() {
					t.Fatalf("step %d: histBase %d last %d, model %d %d",
						step, g.histBase, g.lastEntryIndex(), m.histBase, m.lastEntryIndex())
				}
				if !slices.EqualFunc(g.hist.live, m.hist, func(a, b histEntry) bool {
					return a.eseq == b.eseq && a.e.Index == b.e.Index && a.e.Epoch == b.e.Epoch &&
						&a.e.Op[0] == &b.e.Op[0] // the same buffer, not a copy or a reused one
				}) {
					t.Fatalf("step %d: live entries differ from the model", step)
				}
				lo := len(g.hist.buf) - cap(g.hist.live)
				for i, h := range g.hist.buf {
					if (i < lo || i >= lo+len(g.hist.live)) && (h.e.Op != nil || h.e.Index != 0) {
						t.Fatalf("step %d: slot %d outside the live range [%d,%d) is not zero", step, i, lo, lo+len(g.hist.live))
					}
				}
				probe := rng.Uint64N(g.nextIndex + 2)
				if got, want := g.epochOf(probe), m.epochOf(probe); got != want {
					t.Fatalf("step %d: epochOf(%d) = %d, model %d", step, probe, got, want)
				}
				seq := rng.Uint64N(eseq + 2)
				gi, gok := g.hist.lastBySeq(seq)
				mi, mok := m.lastBySeq(seq)
				if gi != mi || gok != mok {
					t.Fatalf("step %d: lastBySeq(%d) = %d %v, model %d %v", step, seq, gi, gok, mi, mok)
				}

				// A peer somewhere at or below the newest entry — below the
				// window too — asks for a random live target.
				ack := rng.Uint64N(m.lastEntryIndex() + 1)
				target := randomLive(ack)
				if target == 0 {
					continue
				}
				p := g.peers[0]
				p.ack, p.needSeed, peer.runs = ack, false, nil
				ok := g.shipLocked(p, target)
				runs, wantOK, needSeed := m.resend(ack, target)
				if ok != wantOK || p.needSeed != needSeed {
					t.Fatalf("step %d: resend %d→%d: ok %v needSeed %v, model %v %v",
						step, ack, target, ok, p.needSeed, wantOK, needSeed)
				}
				if !slices.EqualFunc(peer.runs, runs, func(a, b resendRun) bool {
					return a.prevIndex == b.prevIndex && a.prevEpoch == b.prevEpoch && slices.Equal(a.indices, b.indices)
				}) {
					t.Fatalf("step %d: resend %d→%d sent %v, model %v", step, ack, target, peer.runs, runs)
				}
			}
		})
	}
}

// TestWindowSteadyStateIsAllocationFree pins the cost contract: with
// the commit watermark keeping up, appending moves and allocates
// nothing beyond the entry itself — the backing array is the one the
// window started with, however many laps it has made.
func TestWindowSteadyStateIsAllocationFree(t *testing.T) {
	const historyEntries = 256
	g := bareGroup(historyEntries, 0, &recordingFollower{})
	buf := &g.hist.buf[0]
	op := []byte{1}
	var eseq uint64
	committedAppend := func() {
		eseq++
		g.appendOp(eseq, op)
		g.commit = g.nextIndex
	}
	committedAppend() // the first append also records the epoch mark
	// One run of many appends: AllocsPerRun rounds its per-run average
	// down, which over single appends would hide an occasional copy.
	if allocs := testing.AllocsPerRun(1, func() {
		for i := 0; i < 4*historyEntries; i++ {
			committedAppend()
		}
	}); allocs != 0 {
		t.Fatalf("%v allocations in %d committed appends, want none", allocs, 4*historyEntries)
	}
	if len(g.hist.buf) != 2*historyEntries || &g.hist.buf[0] != buf {
		t.Fatalf("backing array replaced: %d slots, want the original %d", len(g.hist.buf), 2*historyEntries)
	}
	if len(g.hist.live) != historyEntries || g.histBase != g.nextIndex-historyEntries {
		t.Fatalf("window holds %d entries above base %d after %d appends", len(g.hist.live), g.histBase, g.nextIndex)
	}
}
