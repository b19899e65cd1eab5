package sampling

import (
	"context"
	"sync"
	"testing"

	"carriersense/internal/montecarlo"
)

func autoReq(samples int) montecarlo.Request {
	r := driveReq(1, Auto, samples)
	return r
}

// recordingExecutor remembers the sampler of every non-pilot request.
type recordingExecutor struct {
	inner    montecarlo.Executor
	samplers []string
}

func (r *recordingExecutor) EstimateVec(ctx context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	r.samplers = append(r.samplers, req.Sampler)
	return r.inner.EstimateVec(ctx, req)
}

func TestAutoResolvesDeterministically(t *testing.T) {
	run := func() (string, []PilotScore) {
		a := NewAuto(montecarlo.Local{}, nil, AutoOptions{Target: 0.005})
		if _, err := a.EstimateVec(context.Background(), autoReq(2*montecarlo.ShardSize)); err != nil {
			t.Fatal(err)
		}
		return a.Choices()["drive/noisy"], a.Scores()["drive/noisy"]
	}
	c1, s1 := run()
	c2, s2 := run()
	if c1 == "" || c1 != c2 {
		t.Errorf("choices differ between identical runs: %q vs %q", c1, c2)
	}
	if len(s1) != len(s2) {
		t.Fatalf("scoreboards differ in length: %d vs %d", len(s1), len(s2))
	}
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Errorf("pilot score %d differs: %+v vs %+v", i, s1[i], s2[i])
		}
	}
	// Every candidate is piloted, in tie-break order.
	for i, s := range s1 {
		if i >= len(autoCandidates) || s.Sampler != autoCandidates[i] {
			t.Errorf("scoreboard %+v, want one entry per candidate in order %v", s1, autoCandidates)
			break
		}
	}
}

func TestAutoRewritesToWinnerOnly(t *testing.T) {
	rec := &recordingExecutor{inner: montecarlo.Local{}}
	a := NewAuto(rec, nil, AutoOptions{})
	if _, err := a.EstimateVec(context.Background(), autoReq(2*montecarlo.ShardSize)); err != nil {
		t.Fatal(err)
	}
	winner := a.Choices()["drive/noisy"]
	if winner == "" {
		t.Fatal("no winner resolved")
	}
	for _, s := range rec.samplers {
		if s == Auto {
			t.Error("the virtual auto name leaked past the scheduler")
		}
	}
	// A second request for the same kernel skips the pilots entirely.
	spent := a.PilotSpent()
	if _, err := a.EstimateVec(context.Background(), autoReq(montecarlo.ShardSize)); err != nil {
		t.Fatal(err)
	}
	if a.PilotSpent() != spent {
		t.Error("repeat request re-piloted a resolved kernel")
	}
}

func TestAutoResultBitIdenticalToFixedWinner(t *testing.T) {
	a := NewAuto(montecarlo.Local{}, nil, AutoOptions{})
	got, err := a.EstimateVec(context.Background(), autoReq(2*montecarlo.ShardSize))
	if err != nil {
		t.Fatal(err)
	}
	winner := a.Choices()["drive/noisy"]
	name := winner
	if name == Plain {
		name = ""
	}
	want, err := montecarlo.RunRequest(context.Background(), driveReq(1, name, 2*montecarlo.ShardSize))
	if err != nil {
		t.Fatal(err)
	}
	if got[0] != want[0] {
		t.Errorf("auto result != fixed %q result", winner)
	}
}

// pilotRecorder is a base executor that remembers the seed of every
// pilot request it serves; piloted is closed at the first.
type pilotRecorder struct {
	mu      sync.Mutex
	seeds   []uint64
	piloted chan struct{}
}

func (p *pilotRecorder) EstimateVec(ctx context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	p.mu.Lock()
	if len(p.seeds) == 0 {
		close(p.piloted)
	}
	p.seeds = append(p.seeds, req.Seed)
	p.mu.Unlock()
	return montecarlo.Local{}.EstimateVec(ctx, req)
}

func TestAutoPilotsOnPlanLeaderNotFirstAsker(t *testing.T) {
	if err := montecarlo.SetMaxWorkers(4); err != nil {
		t.Fatal(err)
	}
	defer montecarlo.ResetMaxWorkers()
	rec := &pilotRecorder{piloted: make(chan struct{})}
	a := NewAuto(montecarlo.Local{}, rec, AutoOptions{Target: 0.005})
	// Task 0 asks only once task 1 has asked and waits behind it (its
	// first look at ctx.Done is the scheduler's wait) or, were the
	// scheduler first-come, has started piloting.
	waiting := make(chan struct{})
	asked := make(chan struct{})
	go func() {
		defer close(asked)
		select {
		case <-waiting:
		case <-rec.piloted:
		}
	}()
	results := make([][]montecarlo.Accumulator, 2)
	montecarlo.Fork(montecarlo.WithPlan(context.Background(), a, ""), 2, func(ctx context.Context, i int) {
		if i == 0 {
			<-asked
		}
		req := autoReq(2 * montecarlo.ShardSize)
		req.Seed = uint64(10 + i)
		if i == 1 {
			ctx = &doneWatch{Context: ctx, first: waiting}
		}
		accs, err := montecarlo.Submit(ctx, req)
		if err != nil {
			t.Error(err)
		}
		results[i] = accs
	})
	for _, seed := range rec.seeds {
		if seed != 10 {
			t.Fatalf("pilot seeds %v: piloted on task 1's request, want only task 0's (seed 10)", rec.seeds)
		}
	}
	if len(rec.seeds) == 0 {
		t.Fatal("no pilot ran")
	}
	// Both points ran under the winner, exactly as a sequential run would.
	winner := a.Choices()["drive/noisy"]
	if winner == Plain {
		winner = ""
	}
	for i, got := range results {
		req := autoReq(2 * montecarlo.ShardSize)
		req.Seed = uint64(10 + i)
		req.Sampler = winner
		want, err := montecarlo.RunRequest(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}
		if got[0].State() != want[0].State() {
			t.Errorf("task %d: result differs from the fixed-winner request", i)
		}
	}
}

// doneWatch closes first the first time its Done channel is asked for.
type doneWatch struct {
	context.Context
	first chan struct{}
	once  sync.Once
}

func (d *doneWatch) Done() <-chan struct{} {
	d.once.Do(func() { close(d.first) })
	return d.Context.Done()
}
