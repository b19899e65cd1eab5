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

// drive/noisy is a tunable-variance integrand: mean 5, stddev from
// params, monotone in its single uniform so the variance-reduction
// samplers bite.
func init() {
	montecarlo.RegisterKernel("drive/noisy", 1, func(params json.RawMessage) (montecarlo.BatchEvalFunc, error) {
		sd := 1.0
		if len(params) > 0 {
			if err := json.Unmarshal(params, &sd); err != nil {
				return nil, err
			}
		}
		return montecarlo.BatchLoop(1, func(src *rng.Source, out []float64) {
			out[0] = 5 + sd*src.Normal(0, 1)
		}), nil
	})
}

func driveReq(sd float64, sampler string, samples int) montecarlo.Request {
	raw, _ := json.Marshal(sd)
	return montecarlo.Request{Kernel: "drive/noisy", Params: raw, Seed: 3, Samples: samples, Dim: 1, Sampler: sampler}
}

func TestDriverConvergesAndReports(t *testing.T) {
	d, err := NewDriver(nil, DriverOptions{RelErr: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	before := montecarlo.EvaluatedSamples()
	accs, err := d.EstimateVec(context.Background(), driveReq(1, Plain, 4_000_000))
	if err != nil {
		t.Fatal(err)
	}
	evaluated := montecarlo.EvaluatedSamples() - before
	if math.Abs(accs[0].Estimate().Mean-5) > 0.1 {
		t.Errorf("mean = %v, want ~5", accs[0].Estimate().Mean)
	}
	reports := d.Reports()
	if len(reports) != 1 {
		t.Fatalf("got %d reports, want 1", len(reports))
	}
	r := reports[0]
	if !r.Converged {
		t.Errorf("report not converged: %+v", r)
	}
	if r.RelErr > 0.005 {
		t.Errorf("achieved rel err %v above target", r.RelErr)
	}
	if r.Spent >= 4_000_000 {
		t.Errorf("driver spent the whole cap (%d); should stop early", r.Spent)
	}
	// Work done equals samples reported — the discarded probe included.
	if evaluated != int64(r.Spent) {
		t.Errorf("evaluated %d samples but reported %d spent", evaluated, r.Spent)
	}
	// Beyond the sub-shard probe, growth is whole shards only.
	if rest := r.Spent - probeSamples(Plain); r.Rounds > 1 && rest%montecarlo.ShardSize != 0 {
		t.Errorf("spent %d beyond the probe is not whole shards", rest)
	}
}

func TestDriverSurfacesCapped(t *testing.T) {
	d, err := NewDriver(nil, DriverOptions{RelErr: 1e-9, MaxSamples: 3 * montecarlo.ShardSize})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := d.EstimateVec(context.Background(), driveReq(1, Plain, 10*montecarlo.ShardSize)); err != nil {
		t.Fatal(err)
	}
	r := d.Reports()[0]
	if r.Converged {
		t.Errorf("impossible target reported as converged: %+v", r)
	}
	// An impossible target burns the probe and then the whole cap.
	if want := 3*montecarlo.ShardSize + probeSamples(Plain); r.Spent != want {
		t.Errorf("capped run spent %d, want probe+cap %d", r.Spent, want)
	}
}

func TestDriverDefaultsCapToRequestBudget(t *testing.T) {
	d, err := NewDriver(nil, DriverOptions{RelErr: 1e-9})
	if err != nil {
		t.Fatal(err)
	}
	budget := 2*montecarlo.ShardSize + 100 // deliberately not whole shards
	if _, err := d.EstimateVec(context.Background(), driveReq(1, Plain, budget)); err != nil {
		t.Fatal(err)
	}
	r := d.Reports()[0]
	if want := budget + probeSamples(Plain); r.Spent != want || r.Budget != budget {
		t.Errorf("spent %d under budget %d, want probe+budget %d", r.Spent, r.Budget, want)
	}
}

func TestDriverResultBitIdenticalToDirectRequest(t *testing.T) {
	// A driven plain estimation that spent n samples must equal the
	// one-shot Request{Samples: n} bit for bit: whole-shard growth plus
	// shard-order merging is exactly the same computation.
	d, err := NewDriver(nil, DriverOptions{RelErr: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	accs, err := d.EstimateVec(context.Background(), driveReq(1, Plain, 4_000_000))
	if err != nil {
		t.Fatal(err)
	}
	r := d.Reports()[0]
	// Spent counts the discarded probe; the merged result covers the
	// whole-shard schedule only (or just the probe, had it converged).
	n := r.Spent
	if r.Rounds > 1 {
		n -= probeSamples(Plain)
	}
	direct, err := montecarlo.RunRequest(context.Background(), driveReq(1, Plain, n))
	if err != nil {
		t.Fatal(err)
	}
	if accs[0] != direct[0] {
		t.Errorf("driven result %+v != direct result %+v at n=%d", accs[0].State(), direct[0].State(), n)
	}
}

func TestDriverVarianceReductionSavesSamples(t *testing.T) {
	// The acceptance property at unit-test scale: on a monotone
	// integrand, stratified and sobol reach the same relative error
	// target with fewer evaluated samples than plain.
	spent := map[string]int{}
	for _, sampler := range []string{Plain, Stratified, Sobol} {
		d, err := NewDriver(nil, DriverOptions{RelErr: 0.002})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.EstimateVec(context.Background(), driveReq(1, sampler, 64_000_000)); err != nil {
			t.Fatal(err)
		}
		r := d.Reports()[0]
		if !r.Converged {
			t.Fatalf("sampler %s did not converge: %+v", sampler, r)
		}
		spent[sampler] = r.Spent
	}
	for _, sampler := range []string{Stratified, Sobol} {
		if float64(spent[sampler]) > 0.75*float64(spent[Plain]) {
			t.Errorf("sampler %s spent %d samples, plain %d; want >= 25%% fewer", sampler, spent[sampler], spent[Plain])
		}
	}
}

func TestDriverPassesRangedRequestsThrough(t *testing.T) {
	// A FirstShard request is already a delta (this driver's own, or a
	// nested driver's); driving it again would double-grow.
	d, err := NewDriver(nil, DriverOptions{RelErr: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	req := driveReq(1, Plain, 2*montecarlo.ShardSize)
	req.FirstShard = 1
	if _, err := d.EstimateVec(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	if len(d.Reports()) != 0 {
		t.Errorf("ranged request produced a point report; want pass-through")
	}
}

// countingExecutor records the requests the driver issues.
type countingExecutor struct {
	mu   sync.Mutex
	reqs []montecarlo.Request
}

func (c *countingExecutor) EstimateVec(ctx context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	c.mu.Lock()
	c.reqs = append(c.reqs, req)
	c.mu.Unlock()
	return montecarlo.Local{}.EstimateVec(ctx, req)
}

func TestDriverRoundScheduleIsDeterministicAndRanged(t *testing.T) {
	// The round schedule is what the cache keys on: a repeat run must
	// issue byte-identical requests, and every round after the first
	// must be a pure delta (FirstShard = shards already evaluated).
	runOnce := func() []montecarlo.Request {
		inner := &countingExecutor{}
		d, err := NewDriver(inner, DriverOptions{RelErr: 0.002})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := d.EstimateVec(context.Background(), driveReq(1, Plain, 64_000_000)); err != nil {
			t.Fatal(err)
		}
		return inner.reqs
	}
	first := runOnce()
	second := runOnce()
	if len(first) < 2 {
		t.Fatalf("test needs multiple rounds, got %d", len(first))
	}
	if len(first) != len(second) {
		t.Fatalf("round counts differ between identical runs: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i].Samples != second[i].Samples || first[i].FirstShard != second[i].FirstShard {
			t.Errorf("round %d differs between identical runs", i)
		}
	}
	// The probe leads: a sub-shard request at shard 0. After a miss the
	// whole-shard schedule restarts at shard 0 and is ranged from there.
	if first[0].Samples != probeSamples(Plain) || first[0].FirstShard != 0 {
		t.Errorf("first request %+v is not the probe (want %d samples at shard 0)", first[0], probeSamples(Plain))
	}
	prevShards := 0
	for i := 1; i < len(first); i++ {
		if first[i].FirstShard != prevShards {
			t.Errorf("round %d starts at shard %d, want %d (no re-evaluation)", i, first[i].FirstShard, prevShards)
		}
		prevShards = montecarlo.ShardCount(first[i].Samples)
	}
}

func TestDriverProbeConvergesSubShard(t *testing.T) {
	// A near-exact integrand (tiny sd) meets any reasonable target
	// inside the probe; the point's result must then BE the probe — a
	// plain sub-shard request, bit-identical to running it directly.
	d, err := NewDriver(nil, DriverOptions{RelErr: 0.005})
	if err != nil {
		t.Fatal(err)
	}
	accs, err := d.EstimateVec(context.Background(), driveReq(1e-6, Plain, 4_000_000))
	if err != nil {
		t.Fatal(err)
	}
	r := d.Reports()[0]
	p := probeSamples(Plain)
	if !r.Converged || r.Rounds != 1 || r.Spent != p {
		t.Fatalf("probe should have converged in one sub-shard round, got %+v", r)
	}
	direct, err := montecarlo.RunRequest(context.Background(), driveReq(1e-6, Plain, p))
	if err != nil {
		t.Fatal(err)
	}
	if accs[0] != direct[0] {
		t.Errorf("probe result %+v != direct result %+v", accs[0].State(), direct[0].State())
	}
}

// forkInReverse runs fn for three tasks of one plan over exec and makes
// them finish in reverse index order: each task waits for the next one
// to finish before it starts.
func forkInReverse(t *testing.T, exec montecarlo.Executor, fn func(ctx context.Context, i int)) {
	t.Helper()
	if err := montecarlo.SetMaxWorkers(4); err != nil {
		t.Fatal(err)
	}
	defer montecarlo.ResetMaxWorkers()
	done := []chan struct{}{make(chan struct{}), make(chan struct{}), make(chan struct{})}
	montecarlo.Fork(montecarlo.WithPlan(context.Background(), exec, ""), 3, func(ctx context.Context, i int) {
		defer close(done[i])
		if i < 2 {
			<-done[i+1]
		}
		fn(ctx, i)
	})
}

func TestDriverReportsInPlanOrder(t *testing.T) {
	d, err := NewDriver(nil, DriverOptions{RelErr: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	forkInReverse(t, d, func(ctx context.Context, i int) {
		req := driveReq(1, "", 8*montecarlo.ShardSize)
		req.Seed = uint64(i)
		if _, err := montecarlo.Submit(ctx, req); err != nil {
			t.Error(err)
		}
	})
	var seeds []uint64
	for _, r := range d.Reports() {
		seeds = append(seeds, r.Seed)
	}
	if len(seeds) != 3 || seeds[0] != 0 || seeds[1] != 1 || seeds[2] != 2 {
		t.Errorf("report seeds %v, want plan order [0 1 2] although tasks finished in reverse", seeds)
	}
}
