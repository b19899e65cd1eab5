// Package montecarlo provides the parallel Monte Carlo estimation
// machinery behind the model's expected-throughput integrals. The
// paper computed ⟨C_i⟩(R_max, D) "in Maple with Monte Carlo
// integration" (§3.2.5); this package is our equivalent, with
// deterministic sharded random streams and standard-error tracking.
// Convergence to a target relative error is internal/sampling's
// driver, which grows a Request's shard plan round by round.
//
// Determinism contract: a sample budget is split into fixed-size
// shards, each shard receives its own rng.Source split from the root
// seed in shard order, and shard accumulators are merged in shard
// order. The worker pool only decides which goroutine evaluates which
// shard, so every estimate is bit-identical for a given seed
// regardless of worker count or GOMAXPROCS. The CLI's `-parallel`
// flag sets the pool width via SetMaxWorkers.
//
// Kernels are registered by name (kernel.go), most as one batch
// function that draws and evaluates. A split kernel registers its draw
// (variates to a record of a few floats per sample) and its evaluation
// (record to components) apart, with a key naming the params its draw
// reads. The process keeps one bounded draw memo (memo.go): every
// split-kernel shard, from RunRequest or EvaluateShards, draws its
// records once and later requests whose shard has the same key, such
// as the steps of a threshold bisection on one seed, only evaluate
// them. A reused record is the one a redraw would write, so memoized
// and unmemoized estimates are bit-identical; a shard the full memo
// cannot take is evaluated unmemoized.
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

// ReusedSamples returns the number of samples evaluated, since process
// start, from records the draw memo (memo.go) had stored instead of
// drawn again: EvaluatedSamples minus ReusedSamples is what was drawn.
func ReusedSamples() int64 {
	return samplesReused.Value()
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
		shards[i] = Shard{Index: i, N: min(ShardSize, total-i*ShardSize), Src: srcs[i]}
	}
	return shards
}

// planShardsAt returns the shards of PlanShards(seed, total) at the
// given distinct indices, in the order given, each with the source
// PlanShards gives it, without deriving the sources of the others.
// Every index must be in the plan's range.
func planShardsAt(seed uint64, total int, indices []int) []Shard {
	srcs := rng.New(seed).SplitAt(indices)
	shards := make([]Shard, len(indices))
	for i, idx := range indices {
		shards[i] = Shard{Index: idx, N: min(ShardSize, total-idx*ShardSize), Src: srcs[i]}
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
// pool worker's lane. A worker holds its lane for the sweep, so
// concurrent sweeps (forked tasks, a worker serving several batches)
// never share one. The pool only ever decides scheduling, so
// instrumentation cannot affect results.
func RunShards(shards []Shard, fn func(Shard)) {
	workers := Workers()
	if workers > len(shards) {
		workers = len(shards)
	}
	if workers <= 1 {
		lane := poolLanes.acquire()
		defer poolLanes.release(lane)
		for _, s := range shards {
			instrumentShard(lane, s, fn)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := poolLanes.acquire()
			defer poolLanes.release(lane)
			for {
				i := int(next.Add(1)) - 1
				if i >= len(shards) {
					return
				}
				instrumentShard(lane, shards[i], fn)
			}
		}()
	}
	wg.Wait()
}
