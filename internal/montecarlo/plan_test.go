package montecarlo

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"testing"
)

// withWorkers pins the pool width for one test.
func withWorkers(t *testing.T, n int) {
	t.Helper()
	if err := SetMaxWorkers(n); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ResetMaxWorkers)
}

// positionLog is a plan executor that notes each request's kernel
// name with the position Submit gave it, and evaluates nothing.
type positionLog struct {
	mu  sync.Mutex
	got []loggedPoint
}

type loggedPoint struct {
	label string
	pos   Position
}

func (l *positionLog) EstimateVec(ctx context.Context, req Request) ([]Accumulator, error) {
	l.mu.Lock()
	l.got = append(l.got, loggedPoint{req.Kernel, PositionOf(ctx)})
	l.mu.Unlock()
	return nil, nil
}

// planProgram is a small program with nested forks: two points, a fork
// of three tasks (the middle one forking two of its own), one more
// point. Every point records its label and position.
func planProgram(ctx context.Context, record func(ctx context.Context, label string)) {
	record(ctx, "a")
	record(ctx, "b")
	Fork(ctx, 3, func(ctx context.Context, i int) {
		record(ctx, fmt.Sprintf("t%d.0", i))
		if i == 1 {
			Fork(ctx, 2, func(ctx context.Context, j int) {
				record(ctx, fmt.Sprintf("t1.f%d", j))
			})
		}
		record(ctx, fmt.Sprintf("t%d.1", i))
	})
	record(ctx, "c")
}

func TestForkPositionsFollowSequentialOrder(t *testing.T) {
	run := func(workers int) (issued, ordered []string) {
		withWorkers(t, workers)
		log := &positionLog{}
		planProgram(WithPlan(context.Background(), log, ""), func(ctx context.Context, label string) {
			Submit(ctx, Request{Kernel: label})
		})
		pts := log.got
		for _, p := range pts {
			issued = append(issued, p.label)
		}
		sort.SliceStable(pts, func(a, b int) bool { return slices.Compare(pts[a].pos, pts[b].pos) < 0 })
		for _, p := range pts {
			ordered = append(ordered, p.label)
		}
		return issued, ordered
	}
	want := []string{"a", "b", "t0.0", "t0.1", "t1.0", "t1.f0", "t1.f1", "t1.1", "t2.0", "t2.1", "c"}
	serial, serialOrdered := run(1)
	if fmt.Sprint(serial) != fmt.Sprint(want) {
		t.Errorf("width 1 issued %v, want the inline index order %v", serial, want)
	}
	if fmt.Sprint(serialOrdered) != fmt.Sprint(want) {
		t.Errorf("width 1 positions order %v, want %v", serialOrdered, want)
	}
	_, wide := run(4)
	if fmt.Sprint(wide) != fmt.Sprint(want) {
		t.Errorf("width 4 positions order %v, want %v", wide, want)
	}
}

func TestForkRaisesLowestIndexFailure(t *testing.T) {
	withWorkers(t, 4)
	var canceled [4]bool
	var started sync.WaitGroup // tasks 0-2 are running before task 3 fails
	started.Add(3)
	got := catchExecError(func() {
		Fork(context.Background(), 4, func(ctx context.Context, i int) {
			if i < 3 {
				started.Done()
			}
			switch i {
			case 0: // succeeds once the fork cancels it
				<-ctx.Done()
				canceled[0] = true
			case 1: // fails for real, after task 3's failure canceled it
				<-ctx.Done()
				canceled[1] = true
				panic(&ExecError{Kernel: "k1", Err: errors.New("task 1 failed")})
			case 2: // a casualty of the cancellation
				<-ctx.Done()
				canceled[2] = true
				panic(&ExecError{Kernel: "k2", Err: ctx.Err()})
			case 3:
				started.Wait()
				panic(&ExecError{Kernel: "k3", Err: errors.New("task 3 failed")})
			}
		})
	})
	if got == nil || got.Kernel != "k1" {
		t.Fatalf("raised %v, want task 1's failure", got)
	}
	for i, c := range canceled[:3] {
		if !c {
			t.Errorf("task %d was not canceled", i)
		}
	}
}

func TestForkSkipsCancellationCasualties(t *testing.T) {
	withWorkers(t, 4)
	got := catchExecError(func() {
		Fork(context.Background(), 3, func(ctx context.Context, i int) {
			switch i {
			case 0, 1:
				<-ctx.Done()
				panic(&ExecError{Kernel: fmt.Sprintf("k%d", i), Err: fmt.Errorf("estimate: %w", ctx.Err())})
			case 2:
				panic(&ExecError{Kernel: "k2", Err: errors.New("task 2 failed")})
			}
		})
	})
	if got == nil || got.Kernel != "k2" {
		t.Fatalf("raised %v, want task 2's failure, not a sibling's cancellation", got)
	}
}

func TestForkInlineStopsAtFirstFailure(t *testing.T) {
	withWorkers(t, 1)
	var ran []int
	got := catchExecError(func() {
		Fork(context.Background(), 4, func(ctx context.Context, i int) {
			ran = append(ran, i)
			if i == 1 {
				panic(&ExecError{Kernel: "k1", Err: errors.New("task 1 failed")})
			}
		})
	})
	if got == nil || got.Kernel != "k1" {
		t.Fatalf("raised %v, want task 1's failure", got)
	}
	if fmt.Sprint(ran) != "[0 1]" {
		t.Errorf("ran tasks %v, want [0 1]: later tasks must not start after a failure", ran)
	}
}

func TestForkUnderCanceledContextFails(t *testing.T) {
	for _, workers := range []int{1, 4} {
		withWorkers(t, workers)
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ran := false
		got := catchExecError(func() {
			Fork(ctx, 3, func(context.Context, int) { ran = true })
		})
		if ran || got == nil || !errors.Is(got, context.Canceled) {
			t.Errorf("workers=%d: ran=%v raised %v; want no task run and a cancellation error", workers, ran, got)
		}
	}
}

func TestForkReraisesAnyPanicValue(t *testing.T) {
	// A panic that is not an *ExecError (a plain error, as a placeholder
	// estimate might raise) reaches the forking goroutine with its
	// original value at every width, as it would in the sequential
	// program.
	boom := errors.New("plain failure")
	for _, workers := range []int{1, 4} {
		withWorkers(t, workers)
		var got any
		func() {
			defer func() { got = recover() }()
			Fork(context.Background(), 4, func(ctx context.Context, i int) {
				if i == 1 {
					panic(boom)
				}
				if workers > 1 { // siblings return once the failure cancels them
					<-ctx.Done()
				}
			})
		}()
		if got != boom {
			t.Errorf("workers=%d: raised %v (%T), want the task's own error value", workers, got, got)
		}
	}
}

func catchExecError(fn func()) (got *ExecError) {
	defer func() {
		if r := recover(); r != nil {
			got = r.(*ExecError)
		}
	}()
	fn()
	return nil
}

func TestLeadsFollowsPlanOrder(t *testing.T) {
	withWorkers(t, 4)
	release := []chan struct{}{make(chan struct{}), make(chan struct{})}
	var result bool
	Fork(WithPlan(context.Background(), nil, ""), 3, func(ctx context.Context, i int) {
		if i < 2 {
			<-release[i]
			return
		}
		// Task 2 trails tasks 0 and 1 until both have finished.
		for k := range release {
			leads, _ := Leads(ctx)
			if leads {
				t.Errorf("task 2 leads while task %d is live", k)
			}
			close(release[k])
		}
		for {
			leads, changed := Leads(ctx)
			if leads {
				result = true
				return
			}
			<-changed
		}
	})
	if !result {
		t.Error("task 2 never came to lead")
	}
	if leads, changed := Leads(context.Background()); !leads || changed != nil {
		t.Error("a context outside any plan must lead")
	}
}

func TestLanePoolHandsOutLowestFree(t *testing.T) {
	l := lanePool{base: 10}
	a, b, c := l.acquire(), l.acquire(), l.acquire()
	if a != 10 || b != 11 || c != 12 {
		t.Fatalf("lanes %d %d %d, want 10 11 12", a, b, c)
	}
	l.release(b)
	if got := l.acquire(); got != 11 {
		t.Errorf("after releasing 11 got %d, want 11", got)
	}
}

// TestForkWidthCap pins ForkCapped's schedule: no more than the cap run
// at once, a freed slot goes to the lowest unstarted index, the
// positions are the uncapped Fork's, and a failure or a canceled
// context is handled as Fork handles it.
func TestForkWidthCap(t *testing.T) {
	withWorkers(t, 4)
	t.Run("schedule", func(t *testing.T) {
		const n, width = 6, 2
		started := make(chan int, n)
		release := make([]chan struct{}, n)
		for i := range release {
			release[i] = make(chan struct{})
		}
		var mu sync.Mutex
		running, peak := 0, 0
		done := make(chan struct{})
		go func() {
			defer close(done)
			ForkCapped(context.Background(), n, width, func(ctx context.Context, i int) {
				mu.Lock()
				if running++; running > peak {
					peak = running
				}
				mu.Unlock()
				started <- i
				<-release[i]
				mu.Lock()
				running--
				mu.Unlock()
			})
		}()
		first := map[int]bool{<-started: true, <-started: true}
		if !first[0] || !first[1] {
			t.Fatalf("first tasks started %v, want 0 and 1", first)
		}
		// Each release frees one slot, which the next index takes.
		for k, free := range []int{1, 0, 3, 2} {
			close(release[free])
			if got := <-started; got != k+2 {
				t.Fatalf("after releasing task %d, task %d started; want %d", free, got, k+2)
			}
		}
		close(release[4])
		close(release[5])
		<-done
		if peak > width {
			t.Errorf("%d tasks ran at once, cap %d", peak, width)
		}
	})
	t.Run("positions", func(t *testing.T) {
		positions := func(width int) []string {
			log := &positionLog{}
			ctx := WithPlan(context.Background(), log, "")
			Submit(ctx, Request{})
			ForkCapped(ctx, 5, width, func(ctx context.Context, i int) {
				for range 2 {
					Submit(ctx, Request{})
				}
			})
			var got []string
			for _, p := range log.got[1:] {
				got = append(got, fmt.Sprint(p.pos))
			}
			sort.Strings(got)
			return got
		}
		want := positions(0)
		for _, width := range []int{1, 2, 5, 9} {
			if got := positions(width); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("width %d positions %v, want the uncapped %v", width, got, want)
			}
		}
	})
	t.Run("failure", func(t *testing.T) {
		var mu sync.Mutex
		var ran []int
		zero := make(chan struct{}) // task 0 is running before task 1 fails
		got := catchExecError(func() {
			ForkCapped(context.Background(), 6, 2, func(ctx context.Context, i int) {
				mu.Lock()
				ran = append(ran, i)
				mu.Unlock()
				switch i {
				case 0:
					close(zero)
					<-ctx.Done()
				case 1:
					<-zero
					panic(&ExecError{Kernel: "k1", Err: errors.New("task 1 failed")})
				}
			})
		})
		if got == nil || got.Kernel != "k1" {
			t.Fatalf("raised %v, want task 1's failure", got)
		}
		sort.Ints(ran)
		if fmt.Sprint(ran) != "[0 1]" {
			t.Errorf("ran tasks %v, want [0 1]: tasks waiting for a slot must not start after a failure", ran)
		}
	})
	t.Run("canceled", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		ran := false
		got := catchExecError(func() {
			ForkCapped(ctx, 4, 2, func(context.Context, int) { ran = true })
		})
		if ran || got == nil || !errors.Is(got, context.Canceled) {
			t.Errorf("ran=%v raised %v; want no task run and a cancellation error", ran, got)
		}
	})
}
