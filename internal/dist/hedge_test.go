package dist

// Hedged dispatch, the one straggler policy, tested without a clock:
// thresholds come from histograms filled by hand, and overdue flights
// are made overdue by back-dating flight.sent rather than by waiting.
// The literals below (8 observations, a factor of 2, a 25ms floor, two
// duplicates per shard) pin the policy's constants on purpose.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"carriersense/internal/montecarlo"
	"carriersense/internal/obs"
)

// latencies builds a worker's batch-latency histogram holding n
// observations of v seconds each.
func latencies(n int, v float64) *obs.Histogram {
	h := obs.NewRegistry().Histogram("batch_seconds", "test", nil)
	for i := 0; i < n; i++ {
		h.Observe(v)
	}
	return h
}

func TestHedgeDelayFn(t *testing.T) {
	const q = 0.9
	twice := func(h *obs.Histogram) time.Duration {
		return time.Duration(2 * h.Quantile(q) * float64(time.Second))
	}
	fast, slow := latencies(8, 0.1), latencies(100, 5)
	for _, tc := range []struct {
		name  string
		hists []*obs.Histogram
		want  time.Duration
	}{
		{"no observations", []*obs.Histogram{latencies(0, 0)}, 0},
		{"one short of the floor", []*obs.Histogram{latencies(7, 0.1)}, 0},
		{"every worker short of the floor", []*obs.Histogram{latencies(7, 0.1), latencies(7, 5)}, 0},
		{"at the floor", []*obs.Histogram{fast}, twice(fast)},
		{"fastest worker sets it", []*obs.Histogram{slow, fast}, twice(fast)},
		{"straggler's history ignored", []*obs.Histogram{fast, slow, latencies(7, 0.001)}, twice(fast)},
		{"floored", []*obs.Histogram{latencies(50, 0.001), slow}, 25 * time.Millisecond},
	} {
		r := &Remote{opt: RemoteOptions{HedgeQuantile: q}}
		for _, h := range tc.hists {
			r.hosts = append(r.hosts, &hostState{batchSeconds: h})
		}
		if got := r.hedgeDelayFn()(); got != tc.want {
			t.Errorf("%s: threshold %v, want %v", tc.name, got, tc.want)
		}
	}
	if got := twice(fast); got <= 25*time.Millisecond || got >= twice(slow) {
		t.Fatalf("fixture broken: fast threshold %v must sit between the floor and the slow one", got)
	}
	off := &Remote{hosts: []*hostState{{batchSeconds: fast}}}
	if off.hedgeDelayFn() != nil {
		t.Error("HedgeQuantile 0 armed hedging")
	}
}

func TestHedgeClaimCapsDuplicatesAndSkipsOwnFlight(t *testing.T) {
	const threshold = time.Second
	d := newDispatch(0, 2, 3, func() time.Duration { return threshold })
	before := mHedges.Value()

	// claim is one worker's turn at the empty queue: it hedges the
	// oldest overdue flight of another worker, or nothing.
	claim := func(worker string) ([]int, time.Duration) {
		d.mu.Lock()
		defer d.mu.Unlock()
		return d.hedgeClaimLocked(worker)
	}
	// backdate makes the flight carrying shard idx age old.
	backdate := func(d *dispatch, idx int, age time.Duration) {
		d.mu.Lock()
		d.inflight[idx].sent = time.Now().Add(-age)
		d.mu.Unlock()
	}
	// dispatchAged sends a batch from worker, sent age ago.
	dispatchAged := func(indices []int, worker string, age time.Duration) {
		d.markInflight(indices, worker)
		backdate(d, indices[0], age)
	}

	a := d.next(2, "a")
	if fmt.Sprint(a) != "[0 1]" {
		t.Fatalf("a claimed %v, want [0 1]", a)
	}
	dispatchAged(a, "a", threshold/2)
	if got, ripeIn := claim("b"); got != nil || ripeIn <= 0 || ripeIn > threshold/2 {
		t.Fatalf("unripe flight: b claimed %v, ripe in %v; want nothing, ripe within %v", got, ripeIn, threshold/2)
	}
	backdate(d, 0, 2*threshold)
	if got, _ := claim("a"); got != nil {
		t.Fatalf("a hedged its own flight: %v", got)
	}

	// Each hedge goes out as the hedger's own flight; the next idle
	// worker may duplicate that one in turn, until the per-shard cap.
	counts := map[int]int{}
	for _, w := range []string{"b", "c", "a", "b"} {
		got, _ := claim(w)
		if got == nil {
			continue
		}
		for _, idx := range got {
			counts[idx]++
		}
		dispatchAged(got, w, 2*threshold)
	}
	for idx := 0; idx < 2; idx++ {
		if counts[idx] != 2 {
			t.Errorf("shard %d duplicated %d times, want exactly 2", idx, counts[idx])
		}
	}
	if got := mHedges.Value() - before; got != 2 {
		t.Errorf("cs_dist_hedges_total rose by %d, want 2", got)
	}

	// A completed shard is never duplicated.
	d2 := newDispatch(0, 2, 2, func() time.Duration { return threshold })
	b := d2.next(2, "a")
	d2.markInflight(b, "a")
	backdate(d2, 0, 2*threshold)
	d2.complete([]int{0}, [][]montecarlo.Accumulator{make([]montecarlo.Accumulator, 1)})
	d2.mu.Lock()
	got, _ := d2.hedgeClaimLocked("b")
	d2.mu.Unlock()
	if fmt.Sprint(got) != "[1]" {
		t.Errorf("hedge after shard 0 completed claimed %v, want [1]", got)
	}
}

// startWedgeableWorker boots a worker whose batches block once stall
// is set, until release is called; stalled counts the wedged batches.
func startWedgeableWorker(t *testing.T, stall *atomic.Bool, stalled *atomic.Int64) (host string, release func()) {
	t.Helper()
	gate := make(chan struct{})
	var once sync.Once
	release = func() { once.Do(func() { close(gate) }) }
	host = startHandler(t, batchWorker(func(int64) bool {
		if stall.Load() {
			stalled.Add(1)
			<-gate
		}
		return true
	}))
	t.Cleanup(release) // runs before the server's cleanup
	return host, release
}

func waitWedged(t *testing.T, stalled *atomic.Int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for stalled.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never wedged")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestOneWorkerFleetNeverHedgesItsWedgedBatch(t *testing.T) {
	var stall atomic.Bool
	var stalled atomic.Int64
	host, release := startWedgeableWorker(t, &stall, &stalled)
	remote, err := NewRemote([]string{host}, RemoteOptions{
		BatchSize: 1, HedgeQuantile: 0.9, ReadmitBase: ReadmitOff,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Warm-up: 12 one-shard batches put the worker past the observation
	// floor, so hedging has a threshold.
	warm := streamTestRequest(12 * montecarlo.ShardSize)
	accs, err := remote.EstimateVec(context.Background(), warm)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, accs, localWant(t, warm), "warm-up")

	// One shard: the writer has room for a second batch, so with the
	// first wedged it waits at the empty queue, where only hedging could
	// hand it work — and the only flight to hedge is its own.
	req := streamTestRequest(montecarlo.ShardSize)
	before := mHedges.Value()
	stall.Store(true)
	type result struct {
		accs []montecarlo.Accumulator
		err  error
	}
	done := make(chan result, 1)
	go func() {
		accs, err := remote.EstimateVec(context.Background(), req)
		done <- result{accs, err}
	}()
	waitWedged(t, &stalled)

	var d *dispatch
	remote.mu.Lock()
	for active := range remote.active {
		d = active
	}
	remote.mu.Unlock()
	if d == nil {
		t.Fatal("no estimation in flight")
	}
	d.mu.Lock()
	if d.hedgeDelay() <= 0 {
		d.mu.Unlock()
		t.Fatal("hedging has no threshold after the warm-up; the test would prove nothing")
	}
	if len(d.inflight) == 0 {
		d.mu.Unlock()
		t.Fatal("the wedged batch is not tracked in flight")
	}
	for _, f := range d.inflight {
		f.sent = time.Now().Add(-time.Hour)
	}
	d.cond.Broadcast()
	d.mu.Unlock()
	// Give the woken writer its look at the overdue flight before the
	// gate opens. The verdict does not depend on this pause: a correct
	// policy hedges nothing however long it looks.
	time.Sleep(20 * time.Millisecond)
	if got := mHedges.Value() - before; got != 0 {
		t.Errorf("a one-worker fleet issued %d hedges of its own batch", got)
	}

	release()
	res := <-done
	if res.err != nil {
		t.Fatalf("run failed once the gate opened: %v", res.err)
	}
	requireIdentical(t, res.accs, localWant(t, req), "after the wedge cleared")
}

func TestOneWorkerFleetWedgeEndsOnCancel(t *testing.T) {
	var stall atomic.Bool
	var stalled atomic.Int64
	stall.Store(true)
	host, _ := startWedgeableWorker(t, &stall, &stalled)
	remote, err := NewRemote([]string{host}, RemoteOptions{HedgeQuantile: 0.9, ReadmitBase: ReadmitOff})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := remote.EstimateVec(ctx, streamTestRequest(4*montecarlo.ShardSize))
		done <- err
	}()
	waitWedged(t, &stalled)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled wedged run returned %v, want context.Canceled", err)
		}
		h := remote.hosts[0]
		h.mu.Lock()
		failures, health := h.failures, h.health
		h.mu.Unlock()
		if failures != 0 || health != hostAlive {
			t.Errorf("the cancel charged the worker: %d failures, health %d", failures, health)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("cancel did not end a run wedged on its only worker")
	}
}

func TestJitteredBackoff(t *testing.T) {
	for _, tc := range []struct {
		base  time.Duration
		round int
		max   time.Duration
		d     time.Duration // the un-jittered delay
	}{
		{100 * time.Millisecond, 0, time.Second, 100 * time.Millisecond},
		{100 * time.Millisecond, 2, time.Second, 400 * time.Millisecond},
		{100 * time.Millisecond, 4, time.Second, time.Second},
		{100 * time.Millisecond, 60, time.Second, time.Second},
		// Readmission's own pacing: the default base, capped at 30s.
		{DefaultReadmitBase, 0, readmitMaxBackoff, 500 * time.Millisecond},
		{DefaultReadmitBase, 5, readmitMaxBackoff, 16 * time.Second},
		{DefaultReadmitBase, 6, readmitMaxBackoff, 30 * time.Second},
		{DefaultReadmitBase, 1000, readmitMaxBackoff, 30 * time.Second},
	} {
		for i := 0; i < 200; i++ {
			got := jitteredBackoff(tc.base, tc.round, tc.max)
			if got < tc.d/2 || got >= tc.d*3/2 {
				t.Fatalf("jitteredBackoff(%v, %d, %v) = %v, want in [%v, %v)",
					tc.base, tc.round, tc.max, got, tc.d/2, tc.d*3/2)
			}
		}
	}
	for _, base := range []time.Duration{0, -time.Second} {
		if got := jitteredBackoff(base, 3, time.Second); got != 0 {
			t.Errorf("jitteredBackoff(%v, 3, 1s) = %v, want 0", base, got)
		}
	}
}
