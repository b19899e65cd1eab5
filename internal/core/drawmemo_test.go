package core

import (
	"context"
	"encoding/json"
	"math"
	"net"
	"sync"
	"sync/atomic"
	"testing"

	"carriersense/internal/capacity"
	"carriersense/internal/dist"
	"carriersense/internal/montecarlo"
	"carriersense/internal/sampling"
)

// A threshold search draws each shard once, into the process's draw
// memo, and evaluates the stored records at every later step. These
// tests hold it to the same search on the reference batch kernel
// (kernelPolicyDiffReference), which the memo never serves: the same
// crossing, and the same accumulators at every step, under every
// sampler (auto with its pilots), shadowed and not, at a fixed budget
// and under the convergence driver's ranged rounds, with two searches
// sharing the memo, with records a search on other params left, and
// over a worker fleet.
//
// The memo outlives each test, so a test that counts draws runs its
// searches on seeds no other test uses, after evictMemo.

// step is one estimation a search sent to its executor.
type step struct {
	req  montecarlo.Request
	accs []montecarlo.Accumulator
}

// recorder is an executor that keeps every request and result. It
// runs them on next, or on the local pool when next is nil. With ref
// set it evaluates policy-diff requests on the reference kernel and
// records them under their own name.
type recorder struct {
	next  montecarlo.Executor
	ref   bool
	mu    sync.Mutex
	steps []step
}

func (r *recorder) EstimateVec(ctx context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	run := req
	if r.ref && run.Kernel == KernelPolicyDiff {
		run.Kernel = kernelPolicyDiffReference
	}
	var accs []montecarlo.Accumulator
	var err error
	if r.next != nil {
		accs, err = r.next.EstimateVec(ctx, run)
	} else {
		accs, err = montecarlo.RunRequest(ctx, run)
	}
	r.mu.Lock()
	r.steps = append(r.steps, step{req, accs})
	r.mu.Unlock()
	return accs, err
}

// evaluated is the number of samples steps evaluated.
func evaluated(steps []step) int64 {
	var n int64
	for _, s := range steps {
		n += int64(s.req.SampleSpan())
	}
	return n
}

// evictions counts evictMemo's calls, each of which fills the memo on
// a seed of its own.
var evictions atomic.Uint64

// evictMemo fills the draw memo with the records of a request on a
// seed no other request uses: 8 full shards, the memo's 64 granules.
// It evicts every record an earlier test, or an earlier run of the
// calling one (go test -count), left, so the caller's first draws are
// misses. No request may run meanwhile.
func evictMemo(t *testing.T) {
	t.Helper()
	raw, err := json.Marshal(pointParams{Env: envSpecOf(DefaultParams()), Rmax: 40, D: 55})
	if err != nil {
		t.Fatal(err)
	}
	req := montecarlo.Request{Kernel: KernelPolicyDiff, Params: raw, Seed: 1<<40 + evictions.Add(1), Samples: 8 * montecarlo.ShardSize, Dim: policyDiffDim}
	if _, err := montecarlo.RunRequest(context.Background(), req); err != nil {
		t.Fatal(err)
	}
}

// searchCase is one threshold search.
type searchCase struct {
	sampler    string
	sigma      float64
	relErr     float64 // > 0 drives each step to this target
	seed       uint64
	n          int
	rmax       float64
	noiseDB    float64 // 0 = the default
	efficiency float64 // Shannon capacity's; 0 = the default
}

// search runs c's search, on policy-diff or on the reference kernel,
// and returns the crossing, every step it sent to the pool and the
// samples it drew.
func search(t *testing.T, c searchCase, ref bool) (float64, []step, int64) {
	t.Helper()
	rec := &recorder{ref: ref}
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
	if c.noiseDB != 0 {
		p.NoiseDB = c.noiseDB
	}
	if c.efficiency != 0 {
		p.Capacity = capacity.Shannon{Efficiency: c.efficiency}
	}
	ctx := montecarlo.WithPlan(context.Background(), exec, c.sampler)
	reused := montecarlo.ReusedSamples()
	d := New(p).OptimalThresholdMC(ctx, c.seed, c.n, c.rmax)
	return d, rec.steps, evaluated(rec.steps) - (montecarlo.ReusedSamples() - reused)
}

// sameSearch fails unless two searches found the same crossing through
// the same steps with bit-identical accumulators.
func sameSearch(t *testing.T, name string, dGot, dWant float64, got, want []step) {
	t.Helper()
	if math.Float64bits(dGot) != math.Float64bits(dWant) {
		t.Errorf("%s: crossing %v with the memo, %v on the reference", name, dGot, dWant)
	}
	if len(got) != len(want) {
		t.Fatalf("%s: %d steps with the memo, %d on the reference", name, len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		if string(g.req.Params) != string(w.req.Params) || g.req.Samples != w.req.Samples || g.req.FirstShard != w.req.FirstShard {
			t.Fatalf("%s: step %d asks %+v with the memo, %+v on the reference", name, i, g.req, w.req)
		}
		for j := range w.accs {
			if g.accs[j] != w.accs[j] {
				t.Fatalf("%s: step %d component %d is %+v with the memo, %+v on the reference",
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
				d, steps, drawn := search(t, c, false)
				dRef, ref, _ := search(t, c, true)
				sameSearch(t, name, d, dRef, steps, ref)
				if drawn >= evaluated(steps) {
					t.Errorf("%s σ=%v: drew %d samples of %d evaluated, want reuse", name, sigma, drawn, evaluated(steps))
				}
				for _, s := range steps {
					ranged = ranged || s.req.FirstShard > 0
				}
				t.Logf("%s σ=%v: %d steps, D_opt %.4f, %d of %d samples drawn", name, sigma, len(steps), d, drawn, evaluated(steps))
			}
		}
	}
	if !ranged {
		t.Error("no driven step had a ranged round (FirstShard > 0)")
	}
}

// TestDrawMemoKeyComplete runs searches back to back on one seed. A
// search whose params differ only outside the draw key (noise floor,
// capacity efficiency) reuses every record of the first and draws
// nothing; one at another σ reuses none of them and, like the first,
// draws each of its own shards once. Each equals its search on the
// reference kernel.
func TestDrawMemoKeyComplete(t *testing.T) {
	evictMemo(t)
	base := searchCase{sampler: sampling.Sobol, sigma: 8, seed: 15, n: 2*montecarlo.ShardSize + 300, rmax: 40}
	noise := base
	noise.noiseDB, noise.efficiency = -70, 0.5
	sigma := base
	sigma.sigma = 6
	for _, c := range []struct {
		name   string
		c      searchCase
		reuses bool
	}{{"first", base, false}, {"noise and capacity", noise, true}, {"σ", sigma, false}} {
		d, steps, drawn := search(t, c.c, false)
		dRef, ref, _ := search(t, c.c, true)
		sameSearch(t, c.name, d, dRef, steps, ref)
		want := int64(c.c.n) // each shard once, at the first step
		if c.reuses {
			want = 0
		}
		if drawn != want {
			t.Errorf("%s: drew %d samples, want %d", c.name, drawn, want)
		}
		t.Logf("%s: D_opt %.4f, %d steps, %d samples drawn", c.name, d, len(steps), drawn)
	}
}

// TestDrawMemoConcurrentSearches runs two searches at once, sharing
// the memo (together they want more granules than it holds), and
// checks each against its search on the reference kernel. It runs in
// CI's race lane.
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
		want[i].d, want[i].steps, _ = search(t, c, true)
	}
	got := make([]result, len(cases))
	var wg sync.WaitGroup
	for i, c := range cases {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i].d, got[i].steps, _ = search(t, c, false)
		}()
	}
	wg.Wait()
	for i, c := range cases {
		sameSearch(t, c.sampler, got[i].d, want[i].d, got[i].steps, want[i].steps)
	}
}

// benchSearches runs the three threshold searches of a bench-scale
// tables run (40,000 samples a cell, so 10,000 a step) side by side,
// as tables runs them, on seeds seed, seed+1 and seed+2, through exec
// (the local pool when nil). It returns the crossings, the samples
// evaluated and the samples drawn.
func benchSearches(t *testing.T, exec montecarlo.Executor, seed uint64) (d []float64, spanned, drawn int64) {
	evictMemo(t)
	const n = 10_000
	rmaxes := []float64{20, 40, 120}
	m := New(DefaultParams())
	rec := &recorder{next: exec}
	ctx := montecarlo.WithPlan(context.Background(), rec, "")
	reused := montecarlo.ReusedSamples()
	d = make([]float64, len(rmaxes))
	montecarlo.Fork(ctx, len(rmaxes), func(ctx context.Context, i int) {
		d[i] = m.OptimalThresholdMC(ctx, seed+uint64(i), n, rmaxes[i])
	})
	spanned = evaluated(rec.steps)
	return d, spanned, spanned - (montecarlo.ReusedSamples() - reused)
}

// drawGate fails unless the three bench-scale searches evaluated
// 360,000 samples (12 steps each) and drew 30,000: each row's 3 shards
// once.
func drawGate(t *testing.T, evaluated, drawn int64) {
	t.Helper()
	t.Logf("%d samples drawn, %d evaluated", drawn, evaluated)
	if evaluated != 360_000 {
		t.Errorf("evaluated %d samples, want 360,000 (3 rows of 12 steps of 10,000)", evaluated)
	}
	if drawn != 30_000 {
		t.Errorf("drew %d samples, want 30,000: each row's 3 shards once", drawn)
	}
}

// TestThresholdSearchDrawsOnce is a perf gate: the three searches of
// a bench-scale tables run draw each distinct shard once. The counts
// are deterministic.
func TestThresholdSearchDrawsOnce(t *testing.T) {
	_, evaluated, drawn := benchSearches(t, nil, 1001)
	drawGate(t, evaluated, drawn)
}

// TestDrawMemoFleetDrawsOnce is the same perf gate over a two-worker
// fleet in this process: its workers share the draw memo, so a shard
// one worker drew at one step is a hit for whichever serves it next.
// The crossings equal the local searches' on the reference kernel bit
// for bit. It runs in CI's race lane.
func TestDrawMemoFleetDrawsOnce(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	errs := make(chan error, 2)
	var hosts []string
	for range 2 {
		ready := make(chan net.Addr, 1)
		go func() { errs <- dist.Serve(ctx, "127.0.0.1:0", ready) }()
		select {
		case addr := <-ready:
			hosts = append(hosts, addr.String())
		case err := <-errs:
			cancel()
			t.Fatal(err)
		}
	}
	defer func() {
		cancel()
		for range hosts {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
	}()
	remote, err := dist.NewRemote(hosts)
	if err != nil {
		t.Fatal(err)
	}
	defer remote.Close()
	d, evaluated, drawn := benchSearches(t, remote, 2001)
	drawGate(t, evaluated, drawn)
	want, _, _ := benchSearches(t, &recorder{ref: true}, 2001)
	for i := range want {
		if math.Float64bits(d[i]) != math.Float64bits(want[i]) {
			t.Errorf("row %d: crossing %v over the fleet, %v locally on the reference", i, d[i], want[i])
		}
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
	allocs := func(shards int) float64 {
		req := montecarlo.Request{Kernel: KernelPolicyDiff, Params: raw, Seed: 5, Samples: shards * montecarlo.ShardSize, Dim: policyDiffDim, Sampler: sampling.Sobol}
		run := func() {
			if _, err := montecarlo.RunRequest(context.Background(), req); err != nil {
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
