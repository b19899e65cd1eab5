package dist_test

// Fleet self-healing contract tests: a dead worker is probed back into
// the fleet (between runs and mid-run), hedged dispatch completes a
// run around a wedged straggler, and a run that dies names every
// worker that contributed to its death. Every healed/hedged run must
// stay bit-identical to the local evaluation.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"carriersense/internal/dist"
	"carriersense/internal/montecarlo"
)

// healingWorker severs every connection while sick — a crashed worker
// process, as seen from the coordinator — and serves normally once
// healed.
type healingWorker struct {
	healthy atomic.Bool
	shards  atomic.Int64 // batches served while healthy
	// dead, when non-nil, is closed at the dist.HostFailLimit-th
	// severed connection: the coordinator is about to abandon it.
	dead     chan struct{}
	severed  atomic.Int64
	deadOnce sync.Once
	// served, when non-nil, is closed at the first batch served while
	// healthy.
	served     chan struct{}
	servedOnce sync.Once
}

func (hw *healingWorker) start(t *testing.T) string {
	t.Helper()
	inner := dist.BatchWorker(func(int64) bool {
		hw.shards.Add(1)
		if hw.served != nil {
			hw.servedOnce.Do(func() { close(hw.served) })
		}
		return true
	})
	return dist.StartHandler(t, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !hw.healthy.Load() {
			if hw.severed.Add(1) >= dist.HostFailLimit && hw.dead != nil {
				hw.deadOnce.Do(func() { close(hw.dead) })
			}
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(w, r)
	}))
}

func mustIdentical(t *testing.T, accs []montecarlo.Accumulator, want []montecarlo.Estimate, what string) {
	t.Helper()
	got := estimates(accs)
	for j := range got {
		if got[j] != want[j] {
			t.Errorf("%s: component %d: %+v != local %+v", what, j, got[j], want[j])
		}
	}
}

func TestDeadWorkerReadmittedAfterHeal(t *testing.T) {
	req := testRequest(t, 6*montecarlo.ShardSize)
	local, err := montecarlo.Local{}.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want := estimates(local)

	// The healthy worker is held until the sick one is abandoned, so
	// the first estimation cannot end while the sick one is still in
	// the fleet.
	hw := &healingWorker{dead: make(chan struct{})}
	hosts := []string{startHeldWorker(t, hw.dead), hw.start(t)}
	remote, err := dist.NewRemote(hosts, dist.RemoteOptions{
		BatchSize: 1, ReadmitBase: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	// First estimation: the sick worker aborts its first batch, is
	// abandoned, and the healthy worker carries the run.
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatalf("estimation with a sick worker failed: %v", err)
	}
	mustIdentical(t, accs, want, "sick-worker run")
	if hw.shards.Load() != 0 {
		t.Fatalf("sick worker served %d shard requests; test setup broken", hw.shards.Load())
	}

	// Heal. The background probe should move the worker to half-open,
	// and a subsequent estimation should route real work through it.
	hw.healthy.Store(true)
	deadline := time.Now().Add(10 * time.Second)
	for hw.shards.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("healed worker was never readmitted to the fleet")
		}
		accs, err := remote.EstimateVec(context.Background(), req)
		if err != nil {
			t.Fatalf("estimation while awaiting readmission failed: %v", err)
		}
		mustIdentical(t, accs, want, "post-heal run")
		time.Sleep(5 * time.Millisecond)
	}
}

func TestReadmittedWorkerJoinsRunInFlight(t *testing.T) {
	req := testRequest(t, 36*montecarlo.ShardSize)
	local, err := montecarlo.Local{}.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want := estimates(local)

	// The other worker's batch hook orders the run: its first batch
	// waits until the dead worker has been severed dist.HostFailLimit
	// times (the coordinator abandons it) and then heals it; its later
	// batches wait until the healed worker has served a shard. The run
	// cannot finish without that worker, so the readmission probe must
	// bring it back into *this* run, not just the next one.
	// A bound far beyond any healthy run releases every wait, so a
	// broken readmission path fails the assertions below instead of
	// hanging the test.
	giveUp, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	await := func(ch <-chan struct{}) {
		select {
		case <-ch:
		case <-giveUp.Done():
		}
	}
	hw := &healingWorker{dead: make(chan struct{}), served: make(chan struct{})}
	other := dist.StartHandler(t, dist.BatchWorker(func(batch int64) bool {
		if batch == 1 {
			await(hw.dead)
			hw.healthy.Store(true)
		} else {
			await(hw.served)
		}
		return true
	}))
	remote, err := dist.NewRemote([]string{other, hw.start(t)}, dist.RemoteOptions{
		BatchSize: 1, ReadmitBase: 10 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()

	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatalf("estimation with mid-run readmission failed: %v", err)
	}
	mustIdentical(t, accs, want, "mid-run readmission")
	if hw.shards.Load() == 0 {
		t.Error("readmitted worker served no shards in the run it rejoined")
	}
}

func TestHedgingCompletesAroundWedgedStraggler(t *testing.T) {
	req := testRequest(t, 24*montecarlo.ShardSize)
	local, err := montecarlo.Local{}.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want := estimates(local)

	// A worker that serves normally until stalled, after which batches
	// block on the gate — a wedged-but-connected worker.
	var stall atomic.Bool
	var stalled atomic.Int64
	gate := make(chan struct{})
	wedgeable := dist.StartHandler(t, dist.BatchWorker(func(int64) bool {
		if stall.Load() {
			stalled.Add(1)
			<-gate
		}
		return true
	}))
	t.Cleanup(func() { close(gate) }) // runs before the server's cleanup

	hosts := append(startWorkers(t, 1), wedgeable)
	remote, err := dist.NewRemote(hosts, dist.RemoteOptions{
		BatchSize: 1, HedgeQuantile: 0.9, ReadmitBase: dist.ReadmitOff,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Warm-up: a healthy run seeds the per-worker latency histograms
	// past the observation floor hedging needs for its threshold.
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatalf("warm-up estimation failed: %v", err)
	}
	mustIdentical(t, accs, want, "warm-up")

	// Wedge one worker and re-run: it claims a batch and never answers.
	// Without hedging this run blocks until the gate opens; with it, the
	// healthy worker duplicates the overdue batch and finishes the run.
	stall.Store(true)
	done := make(chan struct{})
	go func() {
		defer close(done)
		accs, err := remote.EstimateVec(context.Background(), req)
		if err != nil {
			t.Errorf("hedged estimation failed: %v", err)
			return
		}
		mustIdentical(t, accs, want, "hedged run")
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("hedged run did not complete while the straggler stayed wedged")
	}
	if stalled.Load() == 0 {
		t.Fatal("straggler never wedged; test exercised nothing")
	}
}

func TestRunFailureNamesEveryWorkersCause(t *testing.T) {
	var hosts []string
	for i := 0; i < 2; i++ {
		srv := httptest.NewServer(dist.NewServer())
		hosts = append(hosts, strings.TrimPrefix(srv.URL, "http://"))
		srv.Close() // connection refused from the start
	}
	remote, err := dist.NewRemote(hosts, dist.RemoteOptions{ReadmitBase: dist.ReadmitOff})
	if err != nil {
		t.Fatal(err)
	}
	_, err = remote.EstimateVec(context.Background(), testRequest(t, 4*montecarlo.ShardSize))
	if err == nil {
		t.Fatal("run over an all-dead fleet succeeded")
	}
	for _, h := range hosts {
		if !strings.Contains(err.Error(), h) {
			t.Errorf("terminal error does not name worker %s:\n%v", h, err)
		}
	}
}
