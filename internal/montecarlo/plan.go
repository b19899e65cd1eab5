package montecarlo

// Plan positions and the ordered fan-out. A scenario that has several
// independent estimation points — the cells of a table, the rows of a
// threshold search — submits them through Fork, which runs them as
// concurrent tasks. Each task carries a position in its context: the
// forking task's path, the fork's sequence number in that task, and
// the task's index. Every estimation point a task issues takes the
// next sequence number of its task (Submit), so ordering positions
// lexicographically reproduces exactly the order the sequential
// program would have issued them in. The layers whose artifacts
// depend on order read the position instead of the arrival order:
// the convergence driver's ledger and the auto sampler, which pilots
// a kernel on the first request in plan order (Leads).

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"carriersense/internal/obs"
)

// Position is an estimation point's place in the sequential program's
// order: positions compare lexicographically (slices.Compare). No
// position is a prefix of another one issued in the same plan; a nil
// position (a request issued outside any plan) sorts first.
type Position []int

// plan is the shared state of one run's tasks: the executor and the
// sampler every estimation of the run goes to, which tasks are live
// (running, or forked but not yet started, and not blocked in a fork
// of their own), and a channel closed whenever that set changes.
type plan struct {
	exec    Executor
	sampler string
	mu      sync.Mutex
	live    map[*task]struct{}
	changed chan struct{}
}

// broadcastLocked wakes every Leads waiter. Called with p.mu held.
func (p *plan) broadcastLocked() {
	close(p.changed)
	p.changed = make(chan struct{})
}

// task is one serial strand of a plan: the root, or one index of a fork.
type task struct {
	plan *plan
	path Position
	seq  atomic.Int64 // next sequence number within path
	lane int          // tracer lane of the task's engine spans
}

// next takes the task's next sequence number and returns its position.
func (t *task) next() Position {
	return extend(t.path, int(t.seq.Add(1)-1))
}

// extend returns a copy of p with i appended; p itself is never
// written, so positions that share a prefix stay independent.
func extend(p Position, i int) Position {
	return append(p[:len(p):len(p)], i)
}

type taskKey struct{}
type posKey struct{}

func taskOf(ctx context.Context) *task {
	t, _ := ctx.Value(taskKey{}).(*task)
	return t
}

// WithPlan returns a context carrying the root task of a fresh plan
// whose estimations go to exec (nil = Local) under sampler, the
// registered sampling strategy KernelMeanVec stamps into each request.
// "plain" is stored as "", so the default strategy has one request
// identity: an explicit `-sampler plain` run shares wire jobs and cache
// entries with a default run. The name is not checked here: the
// sampling chain validates it, and may name a virtual strategy
// ("auto") that its decorator resolves before any shard evaluation.
// engine.Run starts one plan per variant; Fork starts its own, over
// Local, when the context it is handed has none.
func WithPlan(ctx context.Context, exec Executor, sampler string) context.Context {
	if exec == nil {
		exec = Local{}
	}
	if sampler == SamplerPlain {
		sampler = ""
	}
	p := &plan{exec: exec, sampler: sampler, live: map[*task]struct{}{}, changed: make(chan struct{})}
	t := &task{plan: p, lane: obs.TidEngine}
	p.live[t] = struct{}{}
	return context.WithValue(ctx, taskKey{}, t)
}

// Submit sends req to the executor of ctx's plan as the next
// estimation point of ctx's task: the context the executor is handed
// carries the point's position (PositionOf), so every layer below sees
// it. Outside any plan it runs on Local. It is the one way a request
// enters a run's executor chain.
func Submit(ctx context.Context, req Request) ([]Accumulator, error) {
	t := taskOf(ctx)
	if t == nil {
		return Local{}.EstimateVec(ctx, req)
	}
	return t.plan.exec.EstimateVec(context.WithValue(ctx, posKey{}, t.next()), req)
}

// PositionOf returns the position Submit gave ctx's estimation point,
// or nil.
func PositionOf(ctx context.Context) Position {
	pos, _ := ctx.Value(posKey{}).(Position)
	return pos
}

// Lane returns the tracer lane for ctx's task: obs.TidEngine for the
// root (and outside any plan), a lane of its own for a forked task
// that runs beside its siblings.
func Lane(ctx context.Context) int {
	if t := taskOf(ctx); t != nil {
		return t.lane
	}
	return obs.TidEngine
}

// Leads reports whether ctx's task is the earliest live task of its
// plan, so that every estimation point before its next one in plan
// order has been issued. changed is closed at the next change to the
// live set. Outside any plan a caller always leads, and changed is nil.
func Leads(ctx context.Context) (leads bool, changed <-chan struct{}) {
	t := taskOf(ctx)
	if t == nil {
		return true, nil
	}
	p := t.plan
	p.mu.Lock()
	defer p.mu.Unlock()
	for u := range p.live {
		if u != t && slices.Compare(u.path, t.path) < 0 {
			return false, p.changed
		}
	}
	return true, p.changed
}

// Fork runs fn(ctx_i, i) for i in [0, n) as tasks of ctx's plan and
// returns when all have finished. Each task runs on a goroutine of its
// own, started in index order; at a pool width of 1 (Workers() == 1)
// the tasks run inline in index order, which is the sequential
// program's schedule. Task i's context derives from ctx, so canceling
// ctx reaches every task. Fork is ForkCapped without a cap.
//
// fn must write its results to state owned by index i. A panic in a
// task cancels the tasks still running, skips those not yet started,
// and is re-raised, with its original value, in the calling goroutine
// once all have returned. The raised value is the lowest-index failure
// that is not just another task's cancellation, which is the one the
// sequential program would have met first. A canceled ctx fails the
// tasks it keeps from starting, so Fork never returns normally with a
// task left undone.
func Fork(ctx context.Context, n int, fn func(ctx context.Context, i int)) {
	ForkCapped(ctx, n, 0, fn)
}

// ForkCapped is Fork with at most width tasks running at once (width
// <= 0 is no cap). A freed slot goes to the lowest unstarted index, so
// tasks still start in index order, and positions, failures and
// cancellation behave as in Fork. A fork of many expensive tasks caps
// itself at Workers(), so that no more of them are alive at once than
// the pool can run.
func ForkCapped(ctx context.Context, n, width int, fn func(ctx context.Context, i int)) {
	if n <= 0 {
		return
	}
	parent := taskOf(ctx)
	if parent == nil {
		ctx = WithPlan(ctx, nil, "")
		parent = taskOf(ctx)
	}
	p := parent.plan
	at := parent.next()
	kids := make([]*task, n)
	for i := range kids {
		kids[i] = &task{plan: p, path: extend(at, i), lane: parent.lane}
	}
	p.mu.Lock()
	delete(p.live, parent)
	for _, k := range kids {
		p.live[k] = struct{}{}
	}
	p.broadcastLocked()
	p.mu.Unlock()

	// left counts unfinished tasks; the last one to finish hands the
	// plan back to the parent in the same critical section, so no
	// later task can see itself leading while the parent resumes.
	left := n
	finish := func(k *task) {
		p.mu.Lock()
		delete(p.live, k)
		if left--; left == 0 {
			p.live[parent] = struct{}{}
		}
		p.broadcastLocked()
		p.mu.Unlock()
	}
	concurrent := Workers() > 1
	fctx, cancel := context.WithCancel(ctx)
	defer cancel()
	failed := make([]any, n)
	run := func(i int) {
		k := kids[i]
		defer finish(k)
		if err := fctx.Err(); err != nil {
			failed[i] = &ExecError{Kernel: "(task not started)", Err: err}
			return
		}
		defer func() {
			if r := recover(); r != nil {
				failed[i] = r
				cancel()
			}
		}()
		if i > 0 && concurrent {
			k.lane = taskLanes.acquire()
			defer taskLanes.release(k.lane)
			if tr := obs.CurrentTracer(); tr != nil {
				tr.NameThread(k.lane, fmt.Sprintf("engine task %d", k.lane-obs.TidTaskBase+1))
			}
		}
		fn(context.WithValue(fctx, taskKey{}, k), i)
	}
	if concurrent {
		if width <= 0 || width > n {
			width = n
		}
		slots := make(chan struct{}, width)
		var wg sync.WaitGroup
		for i := range n {
			slots <- struct{}{}
			wg.Add(1)
			go func() {
				defer func() {
					<-slots
					wg.Done()
				}()
				run(i)
			}()
		}
		wg.Wait()
	} else {
		for i := range n {
			run(i)
		}
	}
	if r := firstFailure(ctx, failed); r != nil {
		panic(r)
	}
}

// firstFailure picks the panic value Fork re-raises: the lowest-index
// failure, skipping tasks that failed only because Fork canceled them
// after a sibling's failure (unless ctx itself was canceled, when
// those are the real cause).
func firstFailure(ctx context.Context, failed []any) any {
	var first any
	for _, r := range failed {
		if r == nil {
			continue
		}
		err, isErr := r.(error)
		if ctx.Err() != nil || !isErr || !errors.Is(err, context.Canceled) {
			return r
		}
		if first == nil {
			first = r
		}
	}
	return first
}

// lanePool hands out the lowest free lane offset from a base tracer
// lane, so lanes in use at the same time are distinct and a trace
// stays compact.
type lanePool struct {
	base int
	mu   sync.Mutex
	used []bool
}

var (
	taskLanes = lanePool{base: obs.TidTaskBase}
	poolLanes = lanePool{base: obs.TidLocalBase}
)

func (l *lanePool) acquire() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	for k, u := range l.used {
		if !u {
			l.used[k] = true
			return l.base + k
		}
	}
	l.used = append(l.used, true)
	return l.base + len(l.used) - 1
}

func (l *lanePool) release(lane int) {
	l.mu.Lock()
	l.used[lane-l.base] = false
	l.mu.Unlock()
}
