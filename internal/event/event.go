// Package event implements the discrete-event simulation kernel used by the
// detailed chiplet-NoC and memory-system models. It provides a deterministic,
// time-ordered event queue with a simulated clock measured in abstract
// "cycles" (float64 so sub-cycle link serialization can be expressed).
//
// The kernel is intentionally minimal: components schedule closures at future
// times, and Run drains the queue until it is empty or a limit is reached.
// Determinism is guaranteed by a monotonically increasing sequence number
// that breaks ties between events scheduled for the same instant.
//
// The queue is a 4-ary implicit heap of inline entries over a slot table
// with a free-list, so steady-state scheduling (one pop funding one push, as
// in the NoC token loop and the memory queue) touches no allocator at all:
// the heap and slot arrays reach their high-water mark once and are reused.
// A 4-ary layout halves tree depth versus binary, trading a few extra
// comparisons per level for better locality — the right trade when entries
// are 24-byte values rather than pointers. Heap shape never affects
// execution order because (at, seq) is a total order.
package event

import (
	"context"
	"errors"
	"math"
	"sync"

	"ena/internal/obs"
)

// Handler is the work a scheduled event performs. It runs with the simulator
// clock set to the event's timestamp and may schedule further events.
type Handler func()

// heapEnt is one queued event's position in time. The handler itself lives
// in the slot table so the heap moves 24-byte values during sifts.
type heapEnt struct {
	at   float64
	seq  uint64
	slot int32
}

// entLess orders by (at, seq); seq is unique so this is a total order.
func entLess(a, b heapEnt) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// slot holds the mutable per-event state referenced by tickets. gen guards
// against stale cancels: it bumps every time the slot is recycled.
type slot struct {
	fn   Handler
	gen  uint32
	dead bool
}

// Ticket identifies a scheduled event so it can be cancelled.
type Ticket struct {
	s    *Sim
	slot int32
	gen  uint32
}

// Cancel marks the event dead; it will be skipped when dequeued. Cancelling
// an already-fired or already-cancelled event is a harmless no-op.
func (t Ticket) Cancel() {
	if t.s == nil {
		return
	}
	if sl := &t.s.slots[t.slot]; sl.gen == t.gen {
		sl.dead = true
	}
}

// Sim is a discrete-event simulator instance. The zero value is not usable;
// create one with NewSim.
type Sim struct {
	now       float64
	seq       uint64
	heap      []heapEnt
	slots     []slot
	free      []int32
	processed uint64

	// Observability handles (nil unless Instrument is called; the
	// uninstrumented path pays one nil check per event).
	evCounter  *obs.Counter
	depthGauge *obs.Gauge
}

// NewSim returns an empty simulator with the clock at zero.
func NewSim() *Sim {
	return &Sim{}
}

// simPool recycles simulator instances so back-to-back detailed simulations
// (one per DSE point) reuse the heap and slot arrays instead of regrowing
// them from scratch each run.
var simPool = sync.Pool{New: func() any { return NewSim() }}

// AcquireSim returns a reset simulator from the package pool.
func AcquireSim() *Sim {
	return simPool.Get().(*Sim)
}

// ReleaseSim resets s (dropping any instrumentation handles) and returns it
// to the pool. The caller must not use s afterwards.
func ReleaseSim(s *Sim) {
	s.Reset()
	s.evCounter = nil
	s.depthGauge = nil
	simPool.Put(s)
}

// Reset restores the simulator to its initial state — clock at zero, empty
// queue, zero counters — while keeping the backing arrays (and any attached
// instrumentation) so a reused instance schedules without reallocating.
// Outstanding tickets are invalidated.
func (s *Sim) Reset() {
	s.now = 0
	s.seq = 0
	s.processed = 0
	s.heap = s.heap[:0]
	s.free = s.free[:0]
	for i := range s.slots {
		s.slots[i].fn = nil
		s.slots[i].dead = false
		s.slots[i].gen++ // stale tickets must not cancel future events
		s.free = append(s.free, int32(i))
	}
}

// Instrument attaches metrics to the kernel: prefix+".events" counts
// executed events and prefix+".queue_depth_max" tracks the high-water mark
// of the pending queue. A nil registry leaves the simulator uninstrumented.
func (s *Sim) Instrument(reg *obs.Registry, prefix string) {
	if reg == nil {
		return
	}
	s.evCounter = reg.Counter(prefix + ".events")
	s.depthGauge = reg.Gauge(prefix + ".queue_depth_max")
}

// Now returns the current simulated time in cycles.
func (s *Sim) Now() float64 { return s.now }

// Processed returns the number of events executed so far.
func (s *Sim) Processed() uint64 { return s.processed }

// Pending returns the number of events still queued (including cancelled
// events that have not yet been dequeued).
func (s *Sim) Pending() int { return len(s.heap) }

// ErrPastEvent is returned when an event is scheduled before the current time.
var ErrPastEvent = errors.New("event: scheduled in the past")

// At schedules fn to run at absolute time t. Scheduling at the current time
// is allowed (the event runs after already-queued events for that instant).
func (s *Sim) At(t float64, fn Handler) (Ticket, error) {
	if t < s.now {
		return Ticket{}, ErrPastEvent
	}
	if math.IsNaN(t) || math.IsInf(t, 0) {
		return Ticket{}, errors.New("event: non-finite timestamp")
	}
	var si int32
	if n := len(s.free); n > 0 {
		si = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, slot{})
		si = int32(len(s.slots) - 1)
	}
	s.slots[si].fn = fn
	s.push(heapEnt{at: t, seq: s.seq, slot: si})
	s.seq++
	return Ticket{s: s, slot: si, gen: s.slots[si].gen}, nil
}

// After schedules fn to run delay cycles from now; negative delays clamp to 0.
func (s *Sim) After(delay float64, fn Handler) Ticket {
	if delay < 0 {
		delay = 0
	}
	t, err := s.At(s.now+delay, fn)
	if err != nil {
		// Unreachable for finite delays; keep the queue consistent anyway.
		panic(err)
	}
	return t
}

// push appends e and sifts it toward the root.
func (s *Sim) push(e heapEnt) {
	s.heap = append(s.heap, e)
	i := len(s.heap) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !entLess(e, s.heap[p]) {
			break
		}
		s.heap[i] = s.heap[p]
		i = p
	}
	s.heap[i] = e
}

// popRoot removes and returns the minimum entry.
func (s *Sim) popRoot() heapEnt {
	root := s.heap[0]
	n := len(s.heap) - 1
	e := s.heap[n]
	s.heap = s.heap[:n]
	if n == 0 {
		return root
	}
	// Sift the displaced tail entry down from the root.
	i := 0
	for {
		c := 4*i + 1
		if c >= n {
			break
		}
		m := c
		end := min(c+4, n)
		for j := c + 1; j < end; j++ {
			if entLess(s.heap[j], s.heap[m]) {
				m = j
			}
		}
		if !entLess(s.heap[m], e) {
			break
		}
		s.heap[i] = s.heap[m]
		i = m
	}
	s.heap[i] = e
	return root
}

// take pops the minimum entry, recycles its slot, and returns its handler;
// dead is true for a cancelled event (the handler is discarded).
func (s *Sim) take() (at float64, fn Handler, dead bool) {
	e := s.popRoot()
	sl := &s.slots[e.slot]
	fn, dead = sl.fn, sl.dead
	sl.fn = nil
	sl.dead = false
	sl.gen++ // invalidate outstanding tickets for this event
	s.free = append(s.free, e.slot)
	return e.at, fn, dead
}

// Step executes the next pending event and returns false when the queue is
// empty. Cancelled events are skipped without counting as processed.
func (s *Sim) Step() bool {
	for len(s.heap) > 0 {
		at, fn, dead := s.take()
		if dead {
			continue
		}
		s.now = at
		s.processed++
		if s.evCounter != nil {
			s.evCounter.Inc()
			s.depthGauge.SetMax(float64(len(s.heap)))
		}
		fn()
		return true
	}
	return false
}

// Run drains the event queue. maxEvents bounds runaway simulations; pass 0
// for no limit. It returns the number of events executed by this call.
func (s *Sim) Run(maxEvents uint64) uint64 {
	var n uint64
	for s.Step() {
		n++
		if maxEvents > 0 && n >= maxEvents {
			break
		}
	}
	return n
}

// ctxCheckEvery is how many events RunContext executes between cancellation
// checks. Simulations run millions of cheap events, so consulting the
// context's done channel on every one would dominate the loop; a stride this
// size bounds the post-cancel overrun to well under a millisecond of wall
// time while keeping the steady-state cost unmeasurable.
const ctxCheckEvery = 1024

// RunContext drains the event queue like Run but aborts once ctx is
// cancelled, checking every ctxCheckEvery events. It returns the number of
// events executed and ctx.Err() when the drain was cut short (nil when the
// queue emptied or maxEvents was reached). The simulator is left in a
// consistent state: pending events stay queued and a later Run/RunContext
// call resumes where this one stopped.
func (s *Sim) RunContext(ctx context.Context, maxEvents uint64) (uint64, error) {
	done := ctx.Done()
	var n uint64
	for s.Step() {
		n++
		if maxEvents > 0 && n >= maxEvents {
			return n, nil
		}
		if done != nil && n%ctxCheckEvery == 0 {
			select {
			case <-done:
				return n, ctx.Err()
			default:
			}
		}
	}
	return n, nil
}
