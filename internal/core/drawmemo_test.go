package core

import (
	"context"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"carriersense/internal/montecarlo"
	"carriersense/internal/sampling"
)

// A threshold search draws each shard once, in a draw-memo scope, and
// evaluates the stored records at every later step. These tests hold
// it to a search without the scope: the same crossing, and the same
// accumulators at every step, under every sampler (auto with its
// pilots inside the scope), shadowed and not, at a fixed budget and
// under the convergence driver's ranged rounds, with the record pool
// empty, and with two searches sharing the pool.

// step is one estimation a search sent to the local pool.
type step struct {
	req  montecarlo.Request
	accs []montecarlo.Accumulator
}

// recorder is a Local executor that keeps every request and result.
type recorder struct {
	mu    sync.Mutex
	steps []step
}

func (r *recorder) EstimateVec(ctx context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	accs, err := montecarlo.RunRequest(ctx, req)
	r.mu.Lock()
	r.steps = append(r.steps, step{req, accs})
	r.mu.Unlock()
	return accs, err
}

// searchCase is one threshold search.
type searchCase struct {
	sampler string
	sigma   float64
	relErr  float64 // > 0 drives each step to this target
	seed    uint64
	n       int
	rmax    float64
}

// search runs c's search, with or without the draw memo, and returns
// the crossing, every step it sent to the pool and the samples that
// hit stored records.
func search(t *testing.T, c searchCase, memo bool) (float64, []step, int64) {
	t.Helper()
	if !memo {
		withDrawMemo = func(ctx context.Context) (context.Context, func()) { return ctx, func() {} }
		defer func() { withDrawMemo = montecarlo.WithDrawMemo }()
	}
	rec := &recorder{}
	var exec montecarlo.Executor = rec
	if c.sampler == sampling.Auto {
		maxSamples := 0
		if c.relErr > 0 {
			maxSamples = 16 * montecarlo.ShardSize
		}
		chain, err := sampling.NewChain(rec, c.sampler, c.relErr, maxSamples)
		if err != nil {
			t.Fatal(err)
		}
		exec = chain.Executor()
	} else if c.relErr > 0 {
		d, err := sampling.NewDriver(rec, sampling.DriverOptions{RelErr: c.relErr, MaxSamples: 16 * montecarlo.ShardSize})
		if err != nil {
			t.Fatal(err)
		}
		exec = d
	}
	p := DefaultParams()
	p.SigmaDB = c.sigma
	ctx := montecarlo.WithPlan(context.Background(), exec, c.sampler)
	reused := montecarlo.ReusedSamples()
	d := New(p).OptimalThresholdMC(ctx, c.seed, c.n, c.rmax)
	return d, rec.steps, montecarlo.ReusedSamples() - reused
}

// sameSearch fails unless two searches found the same crossing through
// the same steps with bit-identical accumulators.
func sameSearch(t *testing.T, name string, dGot, dWant float64, got, want []step) {
	t.Helper()
	if math.Float64bits(dGot) != math.Float64bits(dWant) {
		t.Errorf("%s: crossing %v with the memo, %v without", name, dGot, dWant)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d steps with the memo, %d without", name, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if string(g.req.Params) != string(w.req.Params) || g.req.Samples != w.req.Samples || g.req.FirstShard != w.req.FirstShard {
			t.Fatalf("%s: step %d asks %+v with the memo, %+v without", name, i, g.req, w.req)
		}
		for j := range w.accs {
			if g.accs[j] != w.accs[j] {
				t.Fatalf("%s: step %d component %d is %+v with the memo, %+v without",
					name, i, j, g.accs[j].Estimate(), w.accs[j].Estimate())
			}
		}
	}
}

func TestDrawMemoSearchBitIdentical(t *testing.T) {
	var ranged bool
	for _, sampler := range []string{sampling.Plain, sampling.Stratified, sampling.Sobol, sampling.Auto} {
		for _, sigma := range []float64{8, 0} {
			for _, relErr := range []float64{0, 0.01} {
				c := searchCase{sampler: sampler, sigma: sigma, relErr: relErr, seed: 11, n: 2*montecarlo.ShardSize + 300, rmax: 40}
				name := sampler
				if relErr > 0 {
					name += " driven"
				}
				d, steps, reused := search(t, c, true)
				dRef, ref, refReused := search(t, c, false)
				sameSearch(t, name, d, dRef, steps, ref)
				if reused == 0 || refReused != 0 {
					t.Errorf("%s σ=%v: %d samples reused with the memo, %d without", name, sigma, reused, refReused)
				}
				for _, s := range steps {
					ranged = ranged || s.req.FirstShard > 0
				}
				t.Logf("%s σ=%v: %d steps, D_opt %.4f, %d samples reused", name, sigma, len(steps), d, reused)
			}
		}
	}
	if !ranged {
		t.Error("no driven step had a ranged round (FirstShard > 0)")
	}
}

// TestDrawMemoEmptyPool runs a search while another scope holds every
// granule of the record pool: each shard is evaluated unmemoized, with
// the same result.
func TestDrawMemoEmptyPool(t *testing.T) {
	c := searchCase{sampler: sampling.Sobol, sigma: 8, seed: 12, n: 3 * montecarlo.ShardSize, rmax: 20}
	dRef, ref, _ := search(t, c, false)

	hold, release := montecarlo.WithDrawMemo(context.Background())
	raw, err := json.Marshal(pointParams{Env: envSpecOf(DefaultParams()), Rmax: 120, D: 55})
	if err != nil {
		t.Fatal(err)
	}
	// 12 full shards want 96 granules: the pool has 64.
	fill := montecarlo.Request{Kernel: KernelPolicyDiff, Params: raw, Seed: 99, Samples: 12 * montecarlo.ShardSize, Dim: policyDiffDim}
	if _, err := montecarlo.RunRequest(hold, fill); err != nil {
		t.Fatal(err)
	}
	d, steps, reused := search(t, c, true)
	release()
	sameSearch(t, "empty pool", d, dRef, steps, ref)
	if reused != 0 {
		t.Errorf("%d samples reused with the pool held elsewhere, want 0", reused)
	}
}

// TestDrawMemoConcurrentSearches runs two searches at once, sharing
// the record pool (together they want more granules than it has), and
// checks each against its unmemoized search. It runs in CI's race lane.
func TestDrawMemoConcurrentSearches(t *testing.T) {
	cases := []searchCase{
		{sampler: sampling.Plain, sigma: 8, seed: 13, n: 5 * montecarlo.ShardSize, rmax: 40},
		{sampler: sampling.Stratified, sigma: 8, seed: 14, n: 5 * montecarlo.ShardSize, rmax: 120},
	}
	type result struct {
		d     float64
		steps []step
	}
	want := make([]result, len(cases))
	for i, c := range cases {
		want[i].d, want[i].steps, _ = search(t, c, false)
	}
	got := make([]result, len(cases))
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i].d, got[i].steps, _ = search(t, c, true)
		}()
	}
	wg.Wait()
	for i, c := range cases {
		sameSearch(t, c.sampler, got[i].d, want[i].d, got[i].steps, want[i].steps)
	}
}

// TestThresholdSearchDrawsOnce is a perf gate: the three threshold
// searches of a bench-scale tables run (40,000 samples a cell, so
// 10,000 a step), run side by side as tables runs them, draw each
// distinct shard once, so each draws 10,000 samples and evaluates
// 10,000 per step. The counts are deterministic.
func TestThresholdSearchDrawsOnce(t *testing.T) {
	const n = 10_000
	rmaxes := []float64{20, 40, 120}
	m := New(DefaultParams())
	rec := &recorder{}
	ctx := montecarlo.WithPlan(context.Background(), rec, "")
	evaluated, reused := montecarlo.EvaluatedSamples(), montecarlo.ReusedSamples()
	montecarlo.Fork(ctx, len(rmaxes), func(ctx context.Context, i int) {
		m.OptimalThresholdMC(ctx, uint64(1001+i), n, rmaxes[i])
	})
	evaluated = montecarlo.EvaluatedSamples() - evaluated
	drawn := evaluated - (montecarlo.ReusedSamples() - reused)
	steps := map[uint64]int{}
	for _, s := range rec.steps {
		steps[s.req.Seed]++
	}
	t.Logf("steps per row %v: %d samples drawn, %d evaluated", steps, drawn, evaluated)
	if want := int64(len(rec.steps) * n); evaluated != want {
		t.Errorf("evaluated %d samples, want %d (%d steps of %d)", evaluated, want, len(rec.steps), n)
	}
	if want := int64(len(rmaxes) * n); drawn != want {
		t.Errorf("drew %d samples, want %d: each row's 3 shards once", drawn, want)
	}
}

// TestMemoHitAllocs is a perf gate: a policy-diff shard whose records
// are stored allocates its accumulators and nothing per sample.
func TestMemoHitAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	const maxPerShard = 1.25
	raw, err := json.Marshal(pointParams{Env: envSpecOf(DefaultParams()), Rmax: 40, D: 55})
	if err != nil {
		t.Fatal(err)
	}
	if err := montecarlo.SetMaxWorkers(2); err != nil {
		t.Fatal(err)
	}
	defer montecarlo.ResetMaxWorkers()
	ctx, release := montecarlo.WithDrawMemo(context.Background())
	defer release()
	allocs := func(shards int) float64 {
		req := montecarlo.Request{Kernel: KernelPolicyDiff, Params: raw, Seed: 5, Samples: shards * montecarlo.ShardSize, Dim: policyDiffDim, Sampler: sampling.Sobol}
		run := func() {
			if _, err := montecarlo.RunRequest(ctx, req); err != nil {
				t.Fatal(err)
			}
		}
		run() // draws the records
		reused := montecarlo.ReusedSamples()
		a := testing.AllocsPerRun(5, run)
		if got := montecarlo.ReusedSamples() - reused; got != int64(6*req.Samples) {
			t.Fatalf("%d samples reused over 6 runs of %d, want all", got, req.Samples)
		}
		return a
	}
	lo, hi := allocs(2), allocs(6)
	perShard := (hi - lo) / 4
	t.Logf("2 shards: %.0f allocs, 6 shards: %.0f allocs, %.2f per shard (%.5f per sample)",
		lo, hi, perShard, perShard/montecarlo.ShardSize)
	if perShard > maxPerShard {
		t.Errorf("a memo-hit shard allocates %.2f objects, want <= %v", perShard, maxPerShard)
	}
}

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool
