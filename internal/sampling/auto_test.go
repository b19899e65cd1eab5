package sampling

import (
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"carriersense/internal/montecarlo"
	"carriersense/internal/rng"
)

// auto/tied gives every candidate the same variance: it skips the
// uniforms a Sobol point covers and draws a normal from the next one,
// which every sampler passes through as a raw uniform, so each is
// plain Monte Carlo.
func init() {
	montecarlo.RegisterKernel("auto/tied", 1, func(json.RawMessage) (montecarlo.BatchEvalFunc, error) {
		return montecarlo.BatchLoop(1, func(src *rng.Source, out []float64) {
			for range rng.SobolMaxDim {
				src.Float64()
			}
			out[0] = 5 + src.Normal(0, 1)
		}), nil
	})
}

// fullPilotBoard is the full pilot's scoreboard for req computed
// independently of the scheduler: each candidate's first two shards,
// scored as var_obs × group ÷ mean² ÷ target².
func fullPilotBoard(t *testing.T, req montecarlo.Request, target float64) []PilotScore {
	t.Helper()
	var board []PilotScore
	for _, cand := range autoCandidates {
		pr := req
		pr.Sampler, pr.Samples, pr.FirstShard = cand, 2*montecarlo.ShardSize, 0
		if cand == Plain {
			pr.Sampler = ""
		}
		accs, err := montecarlo.RunRequest(context.Background(), pr)
		if err != nil {
			t.Fatal(err)
		}
		group, err := montecarlo.SamplerGroup(cand)
		if err != nil {
			t.Fatal(err)
		}
		est := accs[0].Estimate()
		varObs := est.StdErr * est.StdErr * float64(est.N)
		board = append(board, PilotScore{Sampler: cand, Samples: pr.Samples,
			Score: varObs * float64(group) / (est.Mean * est.Mean) / (target * target), obs: est.N})
	}
	return board
}

// winnerOf returns the lowest-scoring candidate, the earlier on a tie.
func winnerOf(board []PilotScore) string {
	best, lo := Plain, math.Inf(1)
	for _, ps := range board {
		if ps.Score < lo {
			best, lo = ps.Sampler, ps.Score
		}
	}
	return best
}

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

func TestAutoSettlesAtProbe(t *testing.T) {
	a := NewAuto(montecarlo.Local{}, nil, AutoOptions{Target: 0.005})
	req := autoReq(2 * montecarlo.ShardSize)
	if _, err := a.EstimateVec(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	// drive/noisy is smooth in its one uniform: stratified is thousands
	// of times cheaper than plain and about 8 times cheaper than sobol,
	// so the driver's probe requests decide.
	want := 0
	for i, ps := range a.Scores()["drive/noisy"] {
		if p := probeSamples(autoCandidates[i]); ps.Samples != p {
			t.Errorf("%s scored on %d samples, want its probe's %d", ps.Sampler, ps.Samples, p)
		}
		want += ps.Samples
	}
	if got := a.PilotSpent(); got != want {
		t.Errorf("PilotSpent = %d, want the probes' %d", got, want)
	}
	full := winnerOf(fullPilotBoard(t, req, 0.005))
	if got := a.Choices()["drive/noisy"]; got != full {
		t.Errorf("settled at the probe on %q, the full pilot picks %q", got, full)
	}
}

func TestAutoTiedFallsThroughToFullPilot(t *testing.T) {
	a := NewAuto(montecarlo.Local{}, nil, AutoOptions{Target: 0.005})
	req := autoReq(2 * montecarlo.ShardSize)
	req.Kernel, req.Params = "auto/tied", nil
	if _, err := a.EstimateVec(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	want := fullPilotBoard(t, req, 0.005)
	got := a.Scores()["auto/tied"]
	if len(got) != len(want) {
		t.Fatalf("scoreboard %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("score %d = %+v, want the full pilot's %+v bit for bit", i, got[i], want[i])
		}
	}
	if c := a.Choices()["auto/tied"]; c != winnerOf(want) {
		t.Errorf("chose %q, the full pilot picks %q", c, winnerOf(want))
	}
	spent := 0
	for _, cand := range autoCandidates {
		spent += probeSamples(cand) + 2*montecarlo.ShardSize
	}
	if got := a.PilotSpent(); got != spent {
		t.Errorf("PilotSpent = %d, want %d (probe and full pilot of every candidate)", got, spent)
	}
}

func TestSeparated(t *testing.T) {
	// Between two 16-block probes the ratio must exceed
	// exp(2.5·√(4/15)) ≈ 3.64.
	obs := []int{512, 16, 16}
	for _, c := range []struct {
		scores []float64
		want   bool
	}{
		{[]float64{1000, 100, 27.4}, true},
		{[]float64{1000, 100, 27.6}, false},
		{[]float64{100, 240, 240}, false}, // plain against a probe: needs 2.52×
		{[]float64{100, 260, 260}, true},
		{[]float64{math.Inf(1), math.Inf(1), math.Inf(1)}, false},
		{[]float64{math.Inf(1), 5, math.Inf(1)}, true},
		{[]float64{0, 0, 1}, false},
	} {
		board := make([]PilotScore, len(c.scores))
		for i, s := range c.scores {
			board[i] = PilotScore{Sampler: autoCandidates[i], Score: s, obs: obs[i]}
		}
		if got := separated(board); got != c.want {
			t.Errorf("separated(%v) = %v, want %v", c.scores, got, c.want)
		}
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
