package telemetry

import (
	"sync"
	"time"
)

// EventKind classifies a maintenance event.
type EventKind uint8

const (
	EvFlush EventKind = iota
	EvCompaction
	EvSnapshot
	EvRestore
	EvRepair
	EvScrub
	EvHealth
	EvRepl
	NumEventKinds = 8
)

func (k EventKind) String() string {
	switch k {
	case EvFlush:
		return "flush"
	case EvCompaction:
		return "compaction"
	case EvSnapshot:
		return "snapshot"
	case EvRestore:
		return "restore"
	case EvRepair:
		return "repair"
	case EvScrub:
		return "scrub"
	case EvHealth:
		return "health"
	case EvRepl:
		return "repl"
	}
	return "unknown"
}

// EventPhase distinguishes the start and end of an operation, and
// instantaneous point events (health transitions, quarantines).
type EventPhase uint8

const (
	PhaseStart EventPhase = iota
	PhaseEnd
	PhasePoint
)

func (p EventPhase) String() string {
	switch p {
	case PhaseStart:
		return "start"
	case PhaseEnd:
		return "end"
	case PhasePoint:
		return "point"
	}
	return "unknown"
}

// Event is one entry in the maintenance event stream. Err is "" on
// success; Dur, Records and Bytes are meaningful on PhaseEnd events.
type Event struct {
	Seq     uint64 // 1-based, assigned by Emit, strictly increasing per stream
	Time    time.Time
	Kind    EventKind
	Phase   EventPhase
	Shard   int // -1 when the emitter is not a shard member
	Dur     time.Duration
	Err     string
	Detail  string
	Records int64
	Bytes   int64
}

// Events is a bounded ring of maintenance events. Emit is cheap (one
// mutex, no allocation beyond the preallocated ring) but is only called
// on maintenance paths, never on the query or write hot path.
type Events struct {
	mu       sync.Mutex
	buf      []Event
	seq      uint64
	inflight [NumEventKinds]int
}

// DefaultEventCap is the ring capacity used when NewEvents is given a
// non-positive capacity.
const DefaultEventCap = 256

// NewEvents returns an event stream retaining the last capacity events.
func NewEvents(capacity int) *Events {
	if capacity <= 0 {
		capacity = DefaultEventCap
	}
	return &Events{buf: make([]Event, 0, capacity)}
}

// Emit stamps the event with the next sequence number (and the current
// time, unless already set) and stores it in the ring. It returns the
// stamped event.
func (ev *Events) Emit(e Event) Event {
	ev.mu.Lock()
	ev.seq++
	e.Seq = ev.seq
	if e.Time.IsZero() {
		e.Time = time.Now()
	}
	if int(e.Kind) < NumEventKinds {
		switch e.Phase {
		case PhaseStart:
			ev.inflight[e.Kind]++
		case PhaseEnd:
			if ev.inflight[e.Kind] > 0 {
				ev.inflight[e.Kind]--
			}
		}
	}
	if len(ev.buf) < cap(ev.buf) {
		ev.buf = append(ev.buf, e)
	} else {
		copy(ev.buf, ev.buf[1:])
		ev.buf[len(ev.buf)-1] = e
	}
	ev.mu.Unlock()
	return e
}

// Recent appends the retained events, oldest first, to dst and returns
// the result.
func (ev *Events) Recent(dst []Event) []Event {
	ev.mu.Lock()
	dst = append(dst, ev.buf...)
	ev.mu.Unlock()
	return dst
}

// InFlight returns the number of started-but-not-ended operations of
// the given kind.
func (ev *Events) InFlight(k EventKind) int {
	ev.mu.Lock()
	defer ev.mu.Unlock()
	if int(k) >= NumEventKinds {
		return 0
	}
	return ev.inflight[k]
}
