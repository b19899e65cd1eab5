// Package montecarlo provides the parallel Monte Carlo estimation
// machinery behind the model's expected-throughput integrals. The
// paper computed ⟨C_i⟩(R_max, D) "in Maple with Monte Carlo
// integration" (§3.2.5); this package is our equivalent, with
// deterministic sharded random streams, standard-error tracking, and
// optional convergence to a target relative error.
//
// Determinism contract: a sample budget is split into fixed-size
// shards, each shard receives its own rng.Source split from the root
// seed in shard order, and shard accumulators are merged in shard
// order. The worker pool only decides which goroutine evaluates which
// shard, so every estimate is bit-identical for a given seed
// regardless of worker count or GOMAXPROCS. The engine's `-parallel`
// flag sets the pool width via SetMaxWorkers.
package montecarlo

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

	"carriersense/internal/rng"
)

// ShardSize is the number of samples per deterministic shard. It is a
// fixed constant — never derived from the worker count — because the
// shard plan defines the random stream assignment and therefore the
// result.
const ShardSize = 4096

// maxWorkers is the configured pool width; 0 means GOMAXPROCS.
var maxWorkers atomic.Int64

// addEvaluatedSamples counts integrand evaluations performed by this
// process (every estimator path routes through it), plus any samples
// executors report via AddEvaluatedSamples. The count lives in the obs
// registry (cs_mc_samples_evaluated_total, see metrics.go) and backs
// the CLI's samples/sec throughput report.
func addEvaluatedSamples(n int) {
	samplesEvaluated.Add(int64(n))
}

// AddEvaluatedSamples credits samples evaluated on behalf of this
// process by an out-of-process executor (a `cs serve` worker fleet),
// so the CLI's throughput report covers distributed runs too.
func AddEvaluatedSamples(n int) {
	if n > 0 {
		addEvaluatedSamples(n)
	}
}

// EvaluatedSamples returns the total number of Monte Carlo samples
// evaluated (or credited) since process start. Snapshot it around a
// run to compute samples/sec.
func EvaluatedSamples() int64 {
	return samplesEvaluated.Value()
}

// SetMaxWorkers sets the worker pool width used by all estimators.
// n must be >= 1; anything else is rejected with an error rather than
// silently clamped (use ResetMaxWorkers to restore the GOMAXPROCS
// default). The width affects only scheduling, never results.
func SetMaxWorkers(n int) error {
	if n < 1 {
		return fmt.Errorf("montecarlo: worker pool width must be >= 1, got %d", n)
	}
	maxWorkers.Store(int64(n))
	return nil
}

// ResetMaxWorkers restores the default pool width (GOMAXPROCS).
func ResetMaxWorkers() {
	maxWorkers.Store(0)
}

// Workers returns the effective worker pool width.
func Workers() int {
	if n := int(maxWorkers.Load()); n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Estimate is the result of a Monte Carlo mean estimation.
type Estimate struct {
	Mean   float64 // sample mean
	StdErr float64 // standard error of the mean
	N      int     // number of samples
}

// RelErr returns the relative standard error |StdErr/Mean|, or +Inf
// when the mean is zero.
func (e Estimate) RelErr() float64 {
	if e.Mean == 0 {
		return math.Inf(1)
	}
	return math.Abs(e.StdErr / e.Mean)
}

// Accumulator tracks a running mean and sum of squared deviations
// (Welford's algorithm). It is the merge currency of the sharded
// runner: workers fill one Accumulator per shard and the engine folds
// them together, in shard order, with Merge.
type Accumulator struct {
	n    int
	mean float64
	m2   float64
}

// Add folds one sample into the accumulator.
func (a *Accumulator) Add(x float64) {
	a.n++
	d := x - a.mean
	a.mean += d / float64(a.n)
	a.m2 += d * (x - a.mean)
}

// Merge folds another accumulator into this one (Chan et al. parallel
// variance combination). Merging in a fixed order is deterministic.
func (a *Accumulator) Merge(b Accumulator) {
	if b.n == 0 {
		return
	}
	if a.n == 0 {
		*a = b
		return
	}
	n := a.n + b.n
	d := b.mean - a.mean
	a.mean += d * float64(b.n) / float64(n)
	a.m2 += b.m2 + d*d*float64(a.n)*float64(b.n)/float64(n)
	a.n = n
}

// N returns the number of samples accumulated.
func (a *Accumulator) N() int { return a.n }

// Estimate returns the mean and its standard error.
func (a *Accumulator) Estimate() Estimate {
	e := Estimate{Mean: a.mean, N: a.n}
	if a.n > 1 {
		variance := a.m2 / float64(a.n-1)
		e.StdErr = math.Sqrt(variance / float64(a.n))
	}
	return e
}

// Shard is one fixed slice of a sample budget with its own
// deterministic random stream.
type Shard struct {
	Index int         // position in the shard plan
	N     int         // samples this shard evaluates
	Src   *rng.Source // stream split from the root seed, in shard order
}

// PlanShards splits a total sample budget into ShardSize-sample shards
// and deterministically derives one rng.Source per shard from the
// seed. The plan depends only on (seed, total). The sources come from
// one SplitN, so pool workers drawing from neighbouring shards never
// write to the same cache line.
func PlanShards(seed uint64, total int) []Shard {
	if total <= 0 {
		return nil
	}
	count := (total + ShardSize - 1) / ShardSize
	srcs := rng.New(seed).SplitN(count)
	shards := make([]Shard, count)
	for i := range shards {
		n := ShardSize
		if i == count-1 {
			n = total - i*ShardSize
		}
		shards[i] = Shard{Index: i, N: n, Src: srcs[i]}
	}
	return shards
}

// RunShards evaluates fn over every shard using a pool of Workers()
// goroutines. fn must confine its writes to state owned by the shard
// index (e.g. accs[shard.Index]); RunShards returns once every shard
// has been evaluated. Per-sample writes belong in worker-local state,
// stored to the shard's slot once when the shard ends: neighbouring
// slots share cache lines, and two workers writing them per sample
// would keep invalidating each other's copy. Each evaluation is timed
// into the registry and, when tracing is on, emitted as a span on its
// pool worker's lane — the pool only ever decides scheduling, so
// instrumentation cannot affect results.
func RunShards(shards []Shard, fn func(Shard)) {
	workers := Workers()
	if workers > len(shards) {
		workers = len(shards)
	}
	if workers <= 1 {
		for _, s := range shards {
			instrumentShard(0, s, fn)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(shards) {
					return
				}
				instrumentShard(w, shards[i], fn)
			}
		}(w)
	}
	wg.Wait()
}

// Mean estimates E[f] over n samples using the sharded pool. Results
// are bit-identical for a fixed (seed, n) at any worker width.
func Mean(seed uint64, n int, f func(*rng.Source) float64) Estimate {
	shards := PlanShards(seed, n)
	accs := make([]Accumulator, len(shards))
	RunShards(shards, func(s Shard) {
		var acc Accumulator
		for i := 0; i < s.N; i++ {
			acc.Add(f(s.Src))
		}
		accs[s.Index] = acc
		addEvaluatedSamples(s.N)
	})
	var total Accumulator
	for i := range accs {
		total.Merge(accs[i])
	}
	return total.Estimate()
}

// MeanVec estimates the means of a vector-valued integrand: f fills
// out with one sample per component. All components share the same
// random configuration draw, which is exactly what comparing MAC
// policies on identical configurations requires (common random
// numbers — variance of *differences* shrinks dramatically).
func MeanVec(seed uint64, n, dim int, f func(*rng.Source, []float64)) []Estimate {
	shards := PlanShards(seed, n)
	accs := make([][]Accumulator, len(shards))
	RunShards(shards, func(s Shard) {
		acc := make([]Accumulator, dim)
		out := make([]float64, dim)
		for i := 0; i < s.N; i++ {
			// Zero the vector so integrands may leave components
			// unset (e.g. indicator variables set only when true).
			for j := range out {
				out[j] = 0
			}
			f(s.Src, out)
			for j, v := range out {
				acc[j].Add(v)
			}
		}
		accs[s.Index] = acc
		addEvaluatedSamples(s.N)
	})
	result := make([]Estimate, dim)
	for j := 0; j < dim; j++ {
		var total Accumulator
		for i := range accs {
			total.Merge(accs[i][j])
		}
		result[j] = total.Estimate()
	}
	return result
}

// MeanToRelErr estimates E[f], growing the sample count geometrically
// (starting at n0, capped at nMax) until the relative standard error
// of the mean drops below relErr. The second return reports whether
// the target was actually reached: false means the estimate ran into
// nMax still above the target, which callers (the threshold searches,
// the convergence driver's artifact output) must be able to tell apart
// from a genuine convergence.
//
// Growth is incremental: each round extends the live shard plan —
// partial shards continue their random streams, new shards are split
// from the root in shard order — so only the delta samples are
// evaluated (a fresh re-estimation per round would throw away ~33% of
// the total work). The result after any round is bit-identical to
// Mean(seed, n) at that round's n, because shard streams, Welford add
// order, and the shard-order merge are all unchanged.
func MeanToRelErr(seed uint64, n0, nMax int, relErr float64, f func(*rng.Source) float64) (Estimate, bool) {
	if n0 < 1 {
		n0 = 1
	}
	if nMax < n0 {
		nMax = n0
	}
	n := n0
	root := rng.New(seed)
	var shards []Shard     // live shard streams, split from root in shard order
	var accs []Accumulator // running per-shard accumulators
	for {
		count := ShardCount(n)
		for _, src := range root.SplitN(count - len(shards)) {
			shards = append(shards, Shard{Index: len(shards), Src: src})
			accs = append(accs, Accumulator{})
		}
		// Delta work per shard: its target size under the grown plan
		// minus the samples already folded in earlier rounds.
		var work []Shard
		for i := 0; i < count; i++ {
			target := ShardSize
			if i == count-1 {
				target = n - i*ShardSize
			}
			if add := target - accs[i].n; add > 0 {
				work = append(work, Shard{Index: i, N: add, Src: shards[i].Src})
			}
		}
		RunShards(work, func(s Shard) {
			acc := accs[s.Index]
			for i := 0; i < s.N; i++ {
				acc.Add(f(s.Src))
			}
			accs[s.Index] = acc
			addEvaluatedSamples(s.N)
		})
		var total Accumulator
		for i := 0; i < count; i++ {
			total.Merge(accs[i])
		}
		est := total.Estimate()
		if est.RelErr() <= relErr {
			return est, true
		}
		if n >= nMax {
			return est, false
		}
		n *= 4
		if n > nMax {
			n = nMax
		}
	}
}

// Fraction estimates P[pred] over n samples.
func Fraction(seed uint64, n int, pred func(*rng.Source) bool) Estimate {
	return Mean(seed, n, func(src *rng.Source) float64 {
		if pred(src) {
			return 1
		}
		return 0
	})
}
