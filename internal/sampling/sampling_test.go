package sampling

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"sync"
	"testing"

	"carriersense/internal/montecarlo"
	"carriersense/internal/rng"
)

// Probe kernels: capture the per-sample draw values so tests can see
// the sampler-transformed stream. Evaluations are recorded in sample
// order by pinning the pool to one worker.
var (
	probeMu  sync.Mutex
	probeLog []float64
)

func resetProbe() {
	probeMu.Lock()
	probeLog = probeLog[:0]
	probeMu.Unlock()
}

func probeValues() []float64 {
	probeMu.Lock()
	defer probeMu.Unlock()
	return append([]float64(nil), probeLog...)
}

func init() {
	// probe/first: records the sample's first uniform.
	montecarlo.RegisterKernel("probe/first", 1, func(params json.RawMessage) (montecarlo.BatchEvalFunc, error) {
		return montecarlo.BatchLoop(1, func(src *rng.Source, out []float64) {
			u := src.Float64()
			probeMu.Lock()
			probeLog = append(probeLog, u)
			probeMu.Unlock()
			out[0] = u
		}), nil
	})
}

func sequential(t *testing.T) {
	t.Helper()
	if err := montecarlo.SetMaxWorkers(1); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(montecarlo.ResetMaxWorkers)
}

func runProbe(t *testing.T, kernel, sampler string, seed uint64, samples int) []montecarlo.Accumulator {
	t.Helper()
	resetProbe()
	accs, err := montecarlo.RunRequest(context.Background(), montecarlo.Request{
		Kernel: kernel, Seed: seed, Samples: samples, Dim: 1, Sampler: sampler,
	})
	if err != nil {
		t.Fatal(err)
	}
	return accs
}

func TestBlockSamplersSurviveIncrementalGrowth(t *testing.T) {
	// The convergence driver grows budgets in whole shards, so a
	// driven block-sampler run is a sequence of ranged requests. The
	// concatenated draw stream must match the one-shot run: same
	// shards, same streams, same blocks.
	sequential(t)
	const total = 3 * montecarlo.ShardSize
	for _, sampler := range []string{Stratified, Sobol} {
		runProbe(t, "probe/first", sampler, 21, total)
		oneShot := probeValues()

		resetProbe()
		for _, round := range []struct{ samples, first int }{
			{montecarlo.ShardSize, 0}, {2 * montecarlo.ShardSize, 1}, {total, 2},
		} {
			if _, err := montecarlo.RunRequest(context.Background(), montecarlo.Request{
				Kernel: "probe/first", Seed: 21, Samples: round.samples, Dim: 1,
				Sampler: sampler, FirstShard: round.first,
			}); err != nil {
				t.Fatal(err)
			}
		}
		grown := probeValues()
		if len(grown) != len(oneShot) {
			t.Fatalf("%s: grown run recorded %d draws, one-shot %d", sampler, len(grown), len(oneShot))
		}
		for i := range oneShot {
			if oneShot[i] != grown[i] {
				t.Fatalf("%s: draw %d differs: one-shot %v, grown %v", sampler, i, oneShot[i], grown[i])
			}
		}
	}
}

func TestStratifiedBlocksCoverStrata(t *testing.T) {
	sequential(t)
	const n = montecarlo.ShardSize + StratifiedBlock + 7 // partial last shard with a partial tail block
	runProbe(t, "probe/first", Stratified, 5, n)
	us := probeValues()
	if len(us) != n {
		t.Fatalf("recorded %d draws, want %d", len(us), n)
	}
	for start := 0; start < n; start += montecarlo.ShardSize {
		end := start + montecarlo.ShardSize
		if end > n {
			end = n
		}
		shardN := end - start
		full := shardN - shardN%StratifiedBlock
		for i := start; i < end; i++ {
			p := i - start
			u := us[i]
			if p < full {
				lo := float64(p%StratifiedBlock) / StratifiedBlock
				hi := lo + 1.0/StratifiedBlock
				if u < lo || u >= hi {
					t.Fatalf("sample %d: draw %v outside its stratum [%v,%v)", i, u, lo, hi)
				}
			} else if u < 0 || u >= 1 {
				// Tail block: unstratified, just a plain uniform.
				t.Fatalf("tail sample %d: draw %v outside [0,1)", i, u)
			}
		}
	}
}

func TestStratifiedAccumulatesBlockMeans(t *testing.T) {
	sequential(t)
	accs := runProbe(t, "probe/first", Stratified, 5, montecarlo.ShardSize)
	if got, want := accs[0].N(), montecarlo.ShardSize/StratifiedBlock; got != want {
		t.Fatalf("accumulator N = %d, want %d block observations", got, want)
	}
	est := accs[0].Estimate()
	if math.Abs(est.Mean-0.5) > 0.01 {
		t.Fatalf("stratified mean of U(0,1) = %v, want ~0.5", est.Mean)
	}
	// Stratification bounds each block mean to 1/2 ± the within-stratum
	// spread, so the block-mean standard error must be far below the
	// plain-sampling σ/√n for the same draws.
	plain := runProbe(t, "probe/first", Plain, 5, montecarlo.ShardSize)
	if est.StdErr >= plain[0].Estimate().StdErr/4 {
		t.Fatalf("stratified StdErr %v not well below plain %v", est.StdErr, plain[0].Estimate().StdErr)
	}
}

func TestSamplersDeterministicAcrossParallelism(t *testing.T) {
	for _, sampler := range []string{Plain, Stratified, Sobol} {
		req := montecarlo.Request{
			Kernel: "probe/first", Seed: 99, Samples: 5*montecarlo.ShardSize + 123, Dim: 1, Sampler: sampler,
		}
		var base []montecarlo.Accumulator
		for _, workers := range []int{1, 3, 8} {
			if err := montecarlo.SetMaxWorkers(workers); err != nil {
				t.Fatal(err)
			}
			accs, err := montecarlo.RunRequest(context.Background(), req)
			montecarlo.ResetMaxWorkers()
			if err != nil {
				t.Fatal(err)
			}
			if base == nil {
				base = accs
				continue
			}
			if accs[0] != base[0] {
				t.Errorf("sampler %s: result at %d workers differs from 1 worker", sampler, workers)
			}
		}
	}
}

func TestValidate(t *testing.T) {
	for _, name := range []string{"", Plain, Stratified, Sobol, Auto} {
		if err := Validate(name); err != nil {
			t.Errorf("Validate(%q) = %v", name, err)
		}
	}
	for _, name := range []string{"latin-hypercube", "antithetic", "halton", "cv"} {
		err := Validate(name)
		if err == nil || !strings.Contains(err.Error(), "unknown sampler") {
			t.Errorf("Validate(%q) = %v, want an unknown-sampler error", name, err)
		}
	}
}
