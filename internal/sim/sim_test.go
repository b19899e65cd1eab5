package sim

import (
	"math/rand/v2"
	"sort"
	"testing"
	"testing/quick"
)

func TestEventOrdering(t *testing.T) {
	s := New()
	var order []int
	s.At(30*Microsecond, func() { order = append(order, 3) })
	s.At(10*Microsecond, func() { order = append(order, 1) })
	s.At(20*Microsecond, func() { order = append(order, 2) })
	s.Run(Second)
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Errorf("order = %v", order)
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := New()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5*Microsecond, func() { order = append(order, i) })
	}
	s.Run(Second)
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events out of insertion order: %v", order)
		}
	}
}

func TestAfterAdvancesClock(t *testing.T) {
	s := New()
	var at Time
	s.After(42*Microsecond, func() { at = s.Now() })
	s.Run(Second)
	if at != 42*Microsecond {
		t.Errorf("fired at %v", at)
	}
	if s.Now() != Second {
		t.Errorf("clock = %v, want advanced to until", s.Now())
	}
}

func TestNestedScheduling(t *testing.T) {
	s := New()
	var times []Time
	s.After(10*Microsecond, func() {
		times = append(times, s.Now())
		s.After(5*Microsecond, func() {
			times = append(times, s.Now())
		})
	})
	s.Run(Second)
	if len(times) != 2 || times[0] != 10*Microsecond || times[1] != 15*Microsecond {
		t.Errorf("times = %v", times)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.After(10*Microsecond, func() { fired = true })
	if !e.Scheduled() {
		t.Error("Scheduled() false before Cancel")
	}
	e.Cancel()
	if e.Scheduled() {
		t.Error("Scheduled() true after Cancel")
	}
	s.Run(Second)
	if fired {
		t.Error("canceled event fired")
	}
	e.Cancel() // idempotent, including after drain
}

func TestCancelZeroEvent(t *testing.T) {
	var e Event
	e.Cancel() // must not panic
	if e.Scheduled() {
		t.Error("zero event reports scheduled")
	}
}

// TestCancelAfterFireDoesNotPoisonReusedSlot is the regression test for
// the slot-reuse hazard: once an event has fired, its slot may be
// recycled for a new event, and a Cancel through the old handle must
// not cancel (or otherwise disturb) the new occupant.
func TestCancelAfterFireDoesNotPoisonReusedSlot(t *testing.T) {
	s := New()
	var stale Event
	stale = s.After(10*Microsecond, func() {})
	s.Run(20 * Microsecond) // stale has fired; its slot is free

	fired := false
	fresh := s.After(10*Microsecond, func() { fired = true })
	if fresh.id != stale.id {
		t.Fatalf("expected slot reuse (stale id %d, fresh id %d)", stale.id, fresh.id)
	}
	if fresh.gen == stale.gen {
		t.Fatal("recycled slot did not advance its generation")
	}
	stale.Cancel() // must be a no-op on the recycled slot
	if !fresh.Scheduled() {
		t.Fatal("stale Cancel removed the event occupying the recycled slot")
	}
	if stale.Scheduled() {
		t.Error("stale handle reports scheduled")
	}
	if stale.Time() != 0 {
		t.Errorf("stale handle Time() = %v, want 0", stale.Time())
	}
	s.Run(Second)
	if !fired {
		t.Error("event in recycled slot never fired")
	}
}

// TestHeapAgainstReference drives the 4-ary index heap with a
// randomized schedule/cancel workload and checks the fire sequence
// against a straightforward reference model (sorted by (time, seq),
// canceled events skipped).
func TestHeapAgainstReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 11))
	for trial := 0; trial < 50; trial++ {
		s := New()
		type ref struct {
			at  Time
			seq int
		}
		var want []ref
		var got []int
		var events []Event
		var refs []ref
		n := 3 + rng.IntN(200)
		for i := 0; i < n; i++ {
			at := Time(rng.Int64N(1000)) * Microsecond
			seq := i
			e := s.At(at, func() { got = append(got, seq) })
			events = append(events, e)
			refs = append(refs, ref{at: at, seq: seq})
		}
		// Cancel a random subset before running.
		canceled := map[int]bool{}
		for i := range events {
			if rng.Float64() < 0.3 {
				events[i].Cancel()
				canceled[i] = true
			}
		}
		for i, r := range refs {
			if !canceled[i] {
				want = append(want, r)
			}
		}
		sort.Slice(want, func(i, j int) bool {
			if want[i].at != want[j].at {
				return want[i].at < want[j].at
			}
			return want[i].seq < want[j].seq
		})
		s.RunAll()
		if len(got) != len(want) {
			t.Fatalf("trial %d: fired %d events, want %d", trial, len(got), len(want))
		}
		for i := range got {
			if got[i] != want[i].seq {
				t.Fatalf("trial %d: fire order %v, want %v", trial, got, want)
			}
		}
	}
}

// TestEventLoopAllocs guards the simulator's allocation budget. A warm
// event loop, with slots recycled through the freelist and a pre-built
// callback, must not allocate per event. This is the tenfold-alloc-
// reduction pin of the hot-path overhaul: regressing it (a boxed queue
// entry, a per-schedule closure) fails here before it shows up in the
// benches. A fresh simulator pays only for growing its slab, a handful
// of allocations for BenchmarkSimulatorEventThroughput's 100,000
// events.
func TestEventLoopAllocs(t *testing.T) {
	t.Run("warm", func(t *testing.T) {
		s := New()
		const eventsPerRun = 10_000
		count := 0
		var tick func()
		tick = func() {
			count++
			if count < eventsPerRun {
				s.After(Microsecond, tick)
			}
		}
		run := func() {
			count = 0
			s.After(Microsecond, tick)
			s.RunAll()
		}
		run() // warm the slab
		allocs := testing.AllocsPerRun(5, run)
		if perEvent := allocs / eventsPerRun; perEvent > 0.001 {
			t.Errorf("event loop allocates %.4f objects/event (%.0f per %d events), want ~0",
				perEvent, allocs, eventsPerRun)
		}
	})
	t.Run("fresh", func(t *testing.T) {
		// The bound is the allocs_per_event lane of BENCH_20260808.json,
		// 7e-5 per event (7 per 100,000 events), with its 50% CI
		// tolerance: 10.5, so at most 10.
		const events, maxAllocs = 100_000, 10
		allocs := testing.AllocsPerRun(5, func() {
			s := New()
			count := 0
			var tick func()
			tick = func() {
				count++
				if count < events {
					s.After(Microsecond, tick)
				}
			}
			s.After(0, tick)
			s.RunAll()
		})
		if allocs > maxAllocs {
			t.Errorf("a fresh simulator allocates %.0f objects for %d events, want <= %d",
				allocs, events, maxAllocs)
		}
	})
}

// TestAt1PassesArgument covers the allocation-free callback form.
func TestAt1PassesArgument(t *testing.T) {
	s := New()
	var got []int
	fn := func(a any) { got = append(got, a.(int)) }
	s.At1(10*Microsecond, fn, 1)
	s.After1(20*Microsecond, fn, 2)
	s.RunAll()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("got = %v", got)
	}
}

func TestRunStopsAtUntil(t *testing.T) {
	s := New()
	var fired []Time
	for _, d := range []Time{10, 20, 30, 40} {
		d := d
		s.At(d*Microsecond, func() { fired = append(fired, d) })
	}
	s.Run(25 * Microsecond)
	if len(fired) != 2 {
		t.Errorf("fired %v, want first two", fired)
	}
	// Events exactly at until still run.
	s.Run(30 * Microsecond)
	if len(fired) != 3 {
		t.Errorf("fired %v after second run", fired)
	}
	if s.Pending() != 1 {
		t.Errorf("pending = %d", s.Pending())
	}
}

func TestStop(t *testing.T) {
	s := New()
	count := 0
	for i := 1; i <= 10; i++ {
		s.At(Time(i)*Microsecond, func() {
			count++
			if count == 3 {
				s.Stop()
			}
		})
	}
	s.Run(Second)
	if count != 3 {
		t.Errorf("count = %d, want 3", count)
	}
}

func TestRunAll(t *testing.T) {
	s := New()
	count := 0
	s.After(10*Microsecond, func() {
		count++
		s.After(10*Microsecond, func() { count++ })
	})
	end := s.RunAll()
	if count != 2 {
		t.Errorf("count = %d", count)
	}
	if end != 20*Microsecond {
		t.Errorf("end = %v", end)
	}
	if s.EventsFired() != 2 {
		t.Errorf("events fired = %d", s.EventsFired())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.After(10*Microsecond, func() {
		defer func() {
			if recover() == nil {
				t.Error("At in the past did not panic")
			}
		}()
		s.At(5*Microsecond, func() {})
	})
	s.Run(Second)
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Error("negative After did not panic")
		}
	}()
	s.After(-1, func() {})
}

func TestTimeConversions(t *testing.T) {
	if FromSeconds(1.5) != 1500*Millisecond {
		t.Errorf("FromSeconds(1.5) = %v", FromSeconds(1.5))
	}
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Errorf("Seconds = %v", got)
	}
	if got := FromMicros(9).Micros(); got != 9 {
		t.Errorf("micros round trip = %v", got)
	}
	if (3 * Microsecond).Duration().Microseconds() != 3 {
		t.Error("Duration conversion")
	}
	f := func(raw int64) bool {
		us := raw % 1_000_000_000
		if us < 0 {
			us = -us
		}
		return FromMicros(float64(us)).Micros() == float64(us)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEventTimeAccessor(t *testing.T) {
	s := New()
	e := s.At(77*Microsecond, func() {})
	if e.Time() != 77*Microsecond {
		t.Errorf("Time() = %v", e.Time())
	}
}
