package sim

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"sort"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"
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
	s.At1(20*Microsecond, fn, 2)
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
	// One event is left.
	s.RunAll()
	if len(fired) != 4 {
		t.Errorf("fired %v after running all", fired)
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
	if got := FromMicros(9); got != 9*Microsecond {
		t.Errorf("FromMicros(9) = %v", got)
	}
	if (3 * Microsecond).Duration().Microseconds() != 3 {
		t.Error("Duration conversion")
	}
	f := func(raw int64) bool {
		us := raw % 1_000_000_000
		if us < 0 {
			us = -us
		}
		return FromMicros(float64(us)) == Time(us)*Microsecond
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

// TestSlotSize pins the event record at one 64-byte cache line: the
// countdown fields fit only because At keeps its func() in arg.
func TestSlotSize(t *testing.T) {
	if n := unsafe.Sizeof(slot{}); n != 64 {
		t.Errorf("slot is %d bytes, want 64", n)
	}
}

// chainHandle is the part of an Event the countdown equivalence test
// drives: an Event from Countdown, or an afterChain.
type chainHandle interface {
	Remaining() int
	Cancel()
}

// afterChain is the reference a countdown must match: n ticks, each
// scheduling the next with After, and fn run at the last.
type afterChain struct {
	s      *Simulator
	period Time
	left   int
	fn     func()
	ev     Event
}

func (c *afterChain) tick() {
	c.left--
	if c.left == 0 {
		c.fn()
		return
	}
	c.ev = c.s.After(c.period, c.tick)
}

func (c *afterChain) Remaining() int {
	if !c.ev.Scheduled() {
		return 0
	}
	return c.left
}

func (c *afterChain) Cancel() { c.ev.Cancel() }

// cdStep is one callback of a countdown test plan. It logs itself,
// then cancels chain cancel (logging its Remaining), arms chain arm,
// and schedules spawn, each at its delay from now. -1 means none.
type cdStep struct {
	delay  Time
	label  int
	cancel int
	arm    int
	spawn  []cdStep
}

// cdSetup is one action before the first Run or between Runs: arm a
// chain (arm >= 0) or schedule step.
type cdSetup struct {
	arm  int
	step cdStep
}

type cdChain struct {
	period Time
	n      int
}

type cdPlan struct {
	chains []cdChain
	setup  [][]cdSetup // setup[i] runs before Run(until[i]); the last before RunAll
	until  []Time
}

// cdCoverage counts the cases a countdown run exercised.
type cdCoverage struct {
	midCancels  int // canceled with 0 < Remaining < n
	midRunEnds  int // a Run(until) returned inside a countdown
	singleTicks int // n = 1 chains armed
	nestedArms  int // chains armed from inside a callback
	tickTimeEvs int // other events that ran exactly on a pending chain's tick
}

// runCountdownPlan runs the plan with Countdown (countdown true) or
// with afterChains, and returns its log: every callback with its time
// and label, every Remaining read at a cancel, and Now() after each
// Run. It also returns EventsFired and the callbacks the plan ran.
func runCountdownPlan(p cdPlan, countdown bool, cov *cdCoverage) (log []string, fired, callbacks uint64) {
	s := New()
	logf := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	handles := make([]chainHandle, len(p.chains))
	arm := func(i int) {
		c := p.chains[i]
		done := func() {
			callbacks++
			logf("%d chain %d done", s.Now(), i)
		}
		if c.n == 1 && cov != nil {
			cov.singleTicks++
		}
		if countdown {
			handles[i] = s.Countdown(c.period, c.n, done)
			return
		}
		ac := &afterChain{s: s, period: c.period, left: c.n, fn: done}
		ac.ev = s.After(c.period, ac.tick)
		handles[i] = ac
	}
	var schedule func(st cdStep)
	schedule = func(st cdStep) {
		s.After(st.delay, func() {
			callbacks++
			logf("%d event %d", s.Now(), st.label)
			if cov != nil {
				for _, h := range handles {
					if e, ok := h.(Event); ok && e.Scheduled() && e.Time() == s.Now() {
						cov.tickTimeEvs++
					}
				}
			}
			if st.cancel >= 0 {
				r := 0
				if h := handles[st.cancel]; h != nil {
					r = h.Remaining()
					h.Cancel()
				}
				if cov != nil && r > 0 && r < p.chains[st.cancel].n {
					cov.midCancels++
				}
				logf("%d cancel %d remaining %d", s.Now(), st.cancel, r)
			}
			if st.arm >= 0 {
				if cov != nil {
					cov.nestedArms++
				}
				arm(st.arm)
			}
			for _, c := range st.spawn {
				schedule(c)
			}
		})
	}
	for i, setup := range p.setup {
		for _, a := range setup {
			if a.arm >= 0 {
				arm(a.arm)
			} else {
				schedule(a.step)
			}
		}
		if i < len(p.until) {
			logf("run until %d: now %d", p.until[i], s.Run(p.until[i]))
			if cov != nil {
				for ci, h := range handles {
					if r := 0; h != nil {
						r = h.Remaining()
						if r > 0 && r < p.chains[ci].n {
							cov.midRunEnds++
						}
					}
				}
			}
		}
	}
	logf("run all: now %d", s.RunAll())
	return log, s.EventsFired(), callbacks
}

// genCountdownPlan draws a plan on a 1 µs grid with short periods, so
// other events land exactly on chain ticks often: some scheduled
// before the chain (at setup), some after (spawned by callbacks).
func genCountdownPlan(rng *rand.Rand) cdPlan {
	var p cdPlan
	nChains := 1 + rng.IntN(5)
	for i := 0; i < nChains; i++ {
		n := 1 + rng.IntN(25)
		if rng.IntN(5) == 0 {
			n = 1
		}
		p.chains = append(p.chains, cdChain{period: Time(1+rng.IntN(5)) * Microsecond, n: n})
	}
	label := 0
	pickChain := func(prob int) int {
		if rng.IntN(prob) != 0 {
			return -1
		}
		return rng.IntN(nChains)
	}
	// Each chain is armed exactly once: at setup or from a callback.
	armAt := make([]int, nChains) // 0: setup, 1: callback
	for i := range armAt {
		armAt[i] = rng.IntN(2)
	}
	var pendingArms []int
	for i, where := range armAt {
		if where == 1 {
			pendingArms = append(pendingArms, i)
		}
	}
	var genStep func(depth int) cdStep
	genStep = func(depth int) cdStep {
		label++
		st := cdStep{delay: Time(rng.IntN(40)) * Microsecond, label: label, cancel: pickChain(3), arm: -1}
		if len(pendingArms) > 0 && rng.IntN(3) == 0 {
			st.arm = pendingArms[0]
			pendingArms = pendingArms[1:]
		}
		if depth < 2 {
			for k := rng.IntN(3); k > 0; k-- {
				st.spawn = append(st.spawn, genStep(depth+1))
			}
		}
		return st
	}
	segments := 1 + rng.IntN(4)
	until := Time(0)
	for seg := 0; seg <= segments; seg++ {
		var setup []cdSetup
		for k := rng.IntN(6); k > 0; k-- {
			setup = append(setup, cdSetup{arm: -1, step: genStep(0)})
		}
		if seg == 0 {
			for i, where := range armAt {
				if where == 0 {
					at := rng.IntN(len(setup) + 1)
					setup = append(setup[:at], append([]cdSetup{{arm: i}}, setup[at:]...)...)
				}
			}
		}
		p.setup = append(p.setup, setup)
		if seg < segments {
			until += Time(rng.IntN(60)) * Microsecond
			p.until = append(p.until, until)
		}
	}
	// Arms no step drew still happen, from one last callback.
	if len(pendingArms) > 0 {
		last := &p.setup[len(p.setup)-1]
		for _, i := range pendingArms {
			label++
			*last = append(*last, cdSetup{arm: -1, step: cdStep{label: label, cancel: -1, arm: i}})
		}
	}
	return p
}

// TestCountdownMatchesAfterChain runs random schedules twice, once
// with Countdown and once with the After chain it stands for, and
// requires the same log: every callback at the same time in the same
// order, the same Remaining at every cancel and the same Now() after
// every Run. The countdown run must count its callbacks, not its
// ticks, in EventsFired.
func TestCountdownMatchesAfterChain(t *testing.T) {
	rng := rand.New(rand.NewPCG(3, 17))
	var cov cdCoverage
	for trial := 0; trial < 2000; trial++ {
		p := genCountdownPlan(rng)
		want, _, _ := runCountdownPlan(p, false, nil)
		got, fired, callbacks := runCountdownPlan(p, true, &cov)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: plan %+v\ncountdown log:\n%s\nAfter-chain log:\n%s",
				trial, p, strings.Join(got, "\n"), strings.Join(want, "\n"))
		}
		if fired != callbacks {
			t.Fatalf("trial %d: EventsFired = %d, want the %d callbacks run", trial, fired, callbacks)
		}
	}
	t.Logf("coverage: %+v", cov)
	if cov.midCancels == 0 || cov.midRunEnds == 0 || cov.singleTicks == 0 ||
		cov.nestedArms == 0 || cov.tickTimeEvs == 0 {
		t.Errorf("the plans missed a case: %+v", cov)
	}
}

// TestCountdownRemaining walks one countdown tick by tick.
func TestCountdownRemaining(t *testing.T) {
	s := New()
	done := Time(0)
	e := s.Countdown(9*Microsecond, 4, func() { done = s.Now() })
	// Run includes until, so Run(k slots) elapses the k-th tick.
	for k, want := range []int{4, 3, 2, 1} {
		s.Run(Time(k) * 9 * Microsecond)
		if got := e.Remaining(); got != want {
			t.Errorf("at %v: Remaining = %d, want %d", s.Now(), got, want)
		}
	}
	if s.EventsFired() != 0 {
		t.Errorf("EventsFired = %d before the last tick, want 0", s.EventsFired())
	}
	s.RunAll()
	if done != 36*Microsecond || e.Remaining() != 0 || e.Scheduled() || s.EventsFired() != 1 {
		t.Errorf("done at %v, Remaining %d, Scheduled %v, EventsFired %d; want 36µs, 0, false, 1",
			done, e.Remaining(), e.Scheduled(), s.EventsFired())
	}
	for _, bad := range []func(){
		func() { s.Countdown(0, 1, func() {}) },
		func() { s.Countdown(Microsecond, 0, func() {}) },
		func() { s.Countdown(Microsecond, 1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid Countdown did not panic")
				}
			}()
			bad()
		}()
	}
}
