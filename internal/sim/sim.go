// Package sim is a small discrete-event simulation engine: a clock, a
// priority queue of timed events, and deterministic FIFO ordering for
// simultaneous events. The packet-level 802.11 reproduction of the
// paper's testbed experiments (internal/phy, internal/mac) runs on it.
//
// The engine is built for the packet simulator's event rates (hundreds
// of thousands of events per simulated second across thousands of
// replications): event records live in a slab owned by the Simulator
// and are recycled through a freelist, the priority queue is a 4-ary
// heap of slot indices (no per-event allocation, no interface boxing),
// and the At1 form lets hot callers schedule a pre-built
// callback with an argument instead of allocating a fresh closure per
// event. Recycled slots carry a generation counter, so an Event handle
// kept past its firing (or cancellation) goes harmlessly stale instead
// of poisoning whatever event reuses the slot.
//
// A Countdown is one queue entry standing for a chain of periodic
// ticks, each of which would only have scheduled the next (the MAC's
// backoff slots). It fires exactly as that After chain would: same
// clock, same order against every other event, same count of ticks
// left when it is canceled. But it runs one callback, at the last
// tick, and passes over the ticks no other event can observe without
// touching the heap.
package sim

import (
	"fmt"
	"math"
	"time"
)

// Time is a simulation timestamp in nanoseconds from simulation start.
// Integer time makes event ordering exact; MAC-layer quantities (slots,
// SIFS, DIFS) are whole microseconds so nanoseconds lose nothing.
type Time int64

// Common durations.
const (
	Microsecond Time = 1000
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds returns the time as float64 seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Duration converts to a time.Duration (both are nanoseconds).
func (t Time) Duration() time.Duration { return time.Duration(t) }

// FromSeconds converts float64 seconds to a Time.
func FromSeconds(s float64) Time { return Time(s * float64(Second)) }

// FromMicros converts float64 microseconds to a Time.
func FromMicros(us float64) Time { return Time(us * float64(Microsecond)) }

// slot is one event record in the simulator's slab; the field order
// keeps it at 64 bytes. fn(arg) is the callback, set while the slot is
// live (At stores its func() in arg behind call0). pos is the slot's
// position in the heap, -1 while free. gen increments every time the
// slot is released, so stale Event handles can be detected. left counts
// the ticks still to elapse, the one at at included, period apart; a
// plain event is a countdown of one tick.
type slot struct {
	at     Time
	seq    uint64
	gen    uint32
	pos    int32
	left   int32
	period Time
	fn     func(any)
	arg    any
}

// call0 runs a func() stored as a slot's argument. A func value is
// pointer-shaped, so storing it in an any allocates nothing.
func call0(fn any) { fn.(func())() }

// Event is a handle to a scheduled callback. Events are one-shot;
// cancel via Cancel before they fire. The zero Event is valid and
// refers to nothing. Handles are values: keeping one past the event's
// firing (or cancellation) is safe — the handle goes stale and every
// method on it becomes a no-op, even after the underlying slot has
// been recycled for a new event.
type Event struct {
	s   *Simulator
	id  int32
	gen uint32
}

// Cancel prevents the event from firing. Safe to call on the zero
// Event and after the event has fired (both are no-ops): a stale
// handle can never cancel the event that now occupies its recycled
// slot, because the slot's generation has moved on.
func (e Event) Cancel() {
	if e.s == nil {
		return
	}
	sl := &e.s.slots[e.id]
	if sl.gen != e.gen || sl.pos < 0 {
		return
	}
	e.s.removeHeap(sl.pos)
	e.s.release(e.id)
}

// Scheduled reports whether the event is still pending (not fired, not
// canceled).
func (e Event) Scheduled() bool {
	if e.s == nil {
		return false
	}
	sl := &e.s.slots[e.id]
	return sl.gen == e.gen && sl.pos >= 0
}

// Time returns the scheduled fire time, or 0 when the handle is stale
// (the event already fired or was canceled). For a countdown it is the
// time of the next tick to elapse.
func (e Event) Time() Time {
	if !e.Scheduled() {
		return 0
	}
	return e.s.slots[e.id].at
}

// Remaining returns how many ticks of a pending countdown have not yet
// elapsed, the last (the one that runs the callback) included: the
// ticks an equivalent After chain would still fire. It is 1 for a
// pending plain event and 0 for a stale handle, so read it before
// Cancel.
func (e Event) Remaining() int {
	if !e.Scheduled() {
		return 0
	}
	return int(e.s.slots[e.id].left)
}

// Simulator owns the clock and the event queue. It is not safe for
// concurrent use; a simulation is a single-goroutine affair (parallel
// experiments run independent Simulators).
type Simulator struct {
	now   Time
	seq   uint64
	fired uint64
	slots []slot
	free  []int32
	heap  []int32
}

// New returns a Simulator at time zero.
func New() *Simulator {
	return &Simulator{}
}

// Now returns the current simulation time.
func (s *Simulator) Now() Time { return s.now }

// EventsFired returns the number of callbacks run so far. A countdown
// counts once, when its callback runs; its elapsed ticks are not
// events.
func (s *Simulator) EventsFired() uint64 { return s.fired }

// alloc claims a slot from the freelist (or grows the slab) and fills
// it. The slot keeps the generation its last release assigned.
func (s *Simulator) alloc(t Time, fn func(any), arg any, period Time, left int32) int32 {
	var id int32
	if n := len(s.free); n > 0 {
		id = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		s.slots = append(s.slots, slot{})
		id = int32(len(s.slots) - 1)
	}
	sl := &s.slots[id]
	sl.at = t
	sl.seq = s.seq
	sl.left = left
	sl.period = period
	sl.fn = fn
	sl.arg = arg
	s.seq++
	return id
}

// release invalidates every handle to the slot and returns it to the
// freelist. Callback references are dropped so fired events do not pin
// their closures or arguments.
func (s *Simulator) release(id int32) {
	sl := &s.slots[id]
	sl.gen++
	sl.pos = -1
	sl.fn = nil
	sl.arg = nil
	s.free = append(s.free, id)
}

// less orders slots by (time, seq): FIFO among simultaneous events.
func (s *Simulator) less(a, b int32) bool {
	x, y := &s.slots[a], &s.slots[b]
	if x.at != y.at {
		return x.at < y.at
	}
	return x.seq < y.seq
}

// The heap is 4-ary: parent(i) = (i-1)/4, children 4i+1 .. 4i+4.
// Shallower than a binary heap, so pushes (the common operation — most
// events fire in near-schedule order) walk fewer levels, and the four
// children of a node share a cache line of indices.

func (s *Simulator) pushHeap(id int32) {
	i := int32(len(s.heap))
	s.heap = append(s.heap, id)
	s.slots[id].pos = i
	s.siftUp(i)
}

func (s *Simulator) siftUp(i int32) {
	h := s.heap
	id := h[i]
	for i > 0 {
		parent := (i - 1) / 4
		if !s.less(id, h[parent]) {
			break
		}
		h[i] = h[parent]
		s.slots[h[i]].pos = i
		i = parent
	}
	h[i] = id
	s.slots[id].pos = i
}

func (s *Simulator) siftDown(i int32) {
	h := s.heap
	n := int32(len(h))
	id := h[i]
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if s.less(h[c], h[best]) {
				best = c
			}
		}
		if !s.less(h[best], id) {
			break
		}
		h[i] = h[best]
		s.slots[h[i]].pos = i
		i = best
	}
	h[i] = id
	s.slots[id].pos = i
}

// removeHeap deletes the entry at heap position pos.
func (s *Simulator) removeHeap(pos int32) {
	n := int32(len(s.heap)) - 1
	moved := s.heap[n]
	s.heap = s.heap[:n]
	if pos == n {
		return
	}
	s.heap[pos] = moved
	s.slots[moved].pos = pos
	s.siftDown(pos)
	s.siftUp(pos)
}

// popRoot removes the heap minimum (which the caller has already read).
func (s *Simulator) popRoot() {
	n := int32(len(s.heap)) - 1
	moved := s.heap[n]
	s.heap = s.heap[:n]
	if n == 0 {
		return
	}
	s.heap[0] = moved
	s.slots[moved].pos = 0
	s.siftDown(0)
}

// At schedules fn at absolute time t, which must not be in the past.
func (s *Simulator) At(t Time, fn func()) Event {
	if fn == nil {
		panic("sim: nil event callback")
	}
	return s.At1(t, call0, fn)
}

// At1 schedules fn(arg) at absolute time t. It is the allocation-free
// form for hot callers: fn is typically built once per component and
// arg carries the per-event state, so scheduling costs no closure
// allocation.
func (s *Simulator) At1(t Time, fn func(any), arg any) Event {
	if t < s.now {
		panic(fmt.Sprintf("sim: scheduling at %d before now %d", t, s.now))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	return s.schedule(t, fn, arg, 0, 1)
}

func (s *Simulator) schedule(t Time, fn func(any), arg any, period Time, left int32) Event {
	id := s.alloc(t, fn, arg, period, left)
	s.pushHeap(id)
	return Event{s: s, id: id, gen: s.slots[id].gen}
}

// After schedules fn after delay d from now.
func (s *Simulator) After(d Time, fn func()) Event {
	if d < 0 {
		panic(fmt.Sprintf("sim: negative delay %d", d))
	}
	return s.At(s.now+d, fn)
}

// Countdown schedules a chain of n ticks, period apart from now, and
// runs fn at the last one. It is equivalent to an After(period, ·)
// chain in which every tick but the last only schedules the next, and
// it keeps that chain's order against every other event exactly: a
// callback that cancels it at time T finds Remaining() equal to the
// ticks the chain would not yet have fired before that callback.
func (s *Simulator) Countdown(period Time, n int, fn func()) Event {
	if period <= 0 {
		panic(fmt.Sprintf("sim: countdown period %d not positive", period))
	}
	if n < 1 || n > math.MaxInt32 {
		panic(fmt.Sprintf("sim: countdown of %d ticks", n))
	}
	if fn == nil {
		panic("sim: nil event callback")
	}
	return s.schedule(s.now+period, call0, fn, period, int32(n))
}

// fireRoot executes the heap minimum, whose time is at most until.
//
// A countdown with ticks left elapses its tick in place. It also
// elapses every later tick but the last that falls strictly before
// the earliest other queued event and no later than until: the After
// chain would have run those alone, scheduling nothing else. It then
// goes back into the heap under the key that chain would have given
// its next tick, (tick time, s.seq++).
//
// Otherwise the slot is popped and released before the callback runs,
// so callbacks are free to schedule new events into the recycled
// slot; the generation bump keeps old handles stale.
func (s *Simulator) fireRoot(until Time) {
	id := s.heap[0]
	sl := &s.slots[id]
	s.now = sl.at
	if sl.left > 1 {
		sl.left--
		next := sl.at + sl.period
		limit := until
		for c, n := 1, len(s.heap); c <= 4 && c < n; c++ {
			if at := s.slots[s.heap[c]].at - 1; at < limit {
				limit = at
			}
		}
		for sl.left > 1 && next <= limit {
			s.now = next
			sl.left--
			next += sl.period
		}
		sl.at = next
		sl.seq = s.seq
		s.seq++
		s.siftDown(0)
		return
	}
	fn, arg := sl.fn, sl.arg
	s.popRoot()
	s.release(id)
	s.fired++
	fn(arg)
}

// Run executes events in timestamp order until the queue empties or the
// clock passes until. Events scheduled exactly at until still run. It
// returns the final simulation time.
func (s *Simulator) Run(until Time) Time {
	for len(s.heap) > 0 {
		if s.slots[s.heap[0]].at > until {
			break
		}
		s.fireRoot(until)
	}
	if s.now < until {
		s.now = until
	}
	return s.now
}

// RunAll executes events until the queue is empty.
func (s *Simulator) RunAll() Time {
	for len(s.heap) > 0 {
		s.fireRoot(math.MaxInt64)
	}
	return s.now
}
