package montecarlo

// The kernel registry and executor seam: the machinery that makes a
// Monte Carlo estimation shippable to another process. A Kernel is a
// named, registered integrand factory — given serialized parameters it
// rebuilds the evaluation closure — so a shard of work is fully
// described by (kernel name, params JSON, seed, sample budget, shard
// index). Both the coordinator and the worker link the same registry
// (they are the same binary), which is what lets the distributed path
// reproduce shard accumulators bit-identically.
//
// The Executor interface is the scale-out seam: Local, the default,
// evaluates the whole shard plan in-process with the RunShards pool;
// internal/dist provides a Remote executor that farms shards out over
// a frame stream and merges the returned accumulator states in shard
// order. A run's executor and sampler are state of its plan
// (WithPlan), which its context carries; Submit is the one way a
// request enters that executor. engine.Run starts one plan per
// variant over the configured executor, so every scenario distributes
// without per-scenario changes, and two runs at once never share one.

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"carriersense/internal/rng"
)

// EvalFunc evaluates one sample of a vector-valued integrand: it fills
// out (one slot per component) using draws from src. The slice is
// zeroed before every call, so indicator components may be left unset.
// It is the per-sample form BatchLoop takes; registered kernels are
// batch functions.
type EvalFunc func(src *rng.Source, out []float64)

// BatchEvalFunc evaluates count consecutive samples of a
// dim-component integrand into out, a count×dim row-major flat buffer
// (sample i fills out[i*dim : (i+1)*dim]). The buffer is zeroed by
// the caller, so indicator components may be left unset. It is the
// one form every registered kernel takes. The plain path calls it a
// chunk at a time; the sampler path calls it with count = 1, once per
// sample on that sample's stream. So a kernel must carry no state from
// one call to the next: count calls with count = 1 must draw and
// compute exactly what one call with count does. A split kernel
// (SplitKernel) has no BatchEvalFunc: the shard loop calls its Draw as
// it would call a BatchEvalFunc, under the same contract, and its Eval
// on the records a chunk at a time. The only state between the two is
// the record, which the draw memo may keep for a later request.
type BatchEvalFunc func(src *rng.Source, count int, out []float64)

// KernelFactory rebuilds a kernel's BatchEvalFunc from serialized
// parameters.
type KernelFactory func(params json.RawMessage) (BatchEvalFunc, error)

// SizedKernelFactory is a KernelFactory for a kernel whose component
// count follows from its parameters: it returns the count too.
type SizedKernelFactory func(params json.RawMessage) (ev BatchEvalFunc, dim int, err error)

// SplitKernel is a kernel in two parts, so that the draw memo
// (memo.go) can keep a shard's draws across requests that differ only
// in params the draw does not read.
type SplitKernel interface {
	// Draw consumes the variates of count consecutive samples from src
	// and writes each sample's record, recLen floats, into rec.
	Draw(src *rng.Source, count int, rec []float64)
	// Eval computes the components of count samples from their
	// records into out, as a BatchEvalFunc does from a source.
	Eval(rec []float64, count int, out []float64)
}

// SplitKernelFactory rebuilds a split kernel from serialized
// parameters, with its draw key: two kernels whose params give equal
// keys write equal records from equal streams. The key must be
// comparable, and is best built without formatting.
type SplitKernelFactory func(params json.RawMessage) (k SplitKernel, drawKey any, err error)

// BatchLoop adapts a per-sample dim-component integrand into the batch
// form, for kernels whose per-sample cost dwarfs the call indirection.
func BatchLoop(dim int, sample EvalFunc) BatchEvalFunc {
	return func(src *rng.Source, count int, out []float64) {
		for i := 0; i < count; i++ {
			sample(src, out[i*dim:(i+1)*dim:(i+1)*dim])
		}
	}
}

// registration pairs a factory with the component count its evaluators
// stride the flat buffer by; requests with a different Dim are
// rejected rather than silently mis-striding the buffer. A sized
// kernel's count comes from its params, so its dim is 0.
type registration struct {
	factory KernelFactory
	sized   SizedKernelFactory
	split   SplitKernelFactory
	dim     int
	recLen  int // record length of a split kernel, else 0
	exact   bool
}

var (
	kernelMu sync.RWMutex
	kernels  = map[string]registration{}
)

// RegisterKernel adds a named integrand factory with its component
// count to the global registry. Registration happens in init()
// (internal/core registers the model's estimators); duplicates, empty
// names and a dim below 1 panic so a broken catalog fails loudly at
// startup.
func RegisterKernel(name string, dim int, factory KernelFactory) {
	register(name, registration{factory: factory, dim: dim})
}

// RegisterExactKernel registers a kernel whose every sample is the
// same deterministic replay (a packet simulation seeded from its
// parameters, not from the shard stream). A request for such a kernel
// is exact at its own sample count, so a layer that would grow the
// budget (the convergence driver) evaluates it as asked.
func RegisterExactKernel(name string, dim int, factory KernelFactory) {
	register(name, registration{factory: factory, dim: dim, exact: true})
}

// RegisterSizedKernel registers a kernel whose component count its
// parameters decide: a request is checked against the count the
// factory returns for the request's params.
func RegisterSizedKernel(name string, factory SizedKernelFactory) {
	if factory == nil {
		panic(fmt.Sprintf("montecarlo: invalid sized kernel %q", name))
	}
	register(name, registration{sized: factory})
}

// RegisterSplitKernel registers a kernel in its draw and eval parts
// (SplitKernel), with recLen floats per record (1 to 4). It evaluates
// only shard by shard (RunRequest, EvaluateShards), where every shard
// draws its records, or finds them in the draw memo, and evaluates
// them.
func RegisterSplitKernel(name string, dim, recLen int, factory SplitKernelFactory) {
	if recLen < 1 || recLen > maxRecLen || factory == nil {
		panic(fmt.Sprintf("montecarlo: invalid split kernel %q", name))
	}
	register(name, registration{split: factory, dim: dim, recLen: recLen})
}

func register(name string, reg registration) {
	if name == "" || (reg.factory == nil && reg.split == nil && reg.sized == nil) || (reg.sized == nil && reg.dim < 1) {
		panic("montecarlo: invalid kernel registration")
	}
	kernelMu.Lock()
	defer kernelMu.Unlock()
	if _, dup := kernels[name]; dup {
		panic(fmt.Sprintf("montecarlo: duplicate kernel %q", name))
	}
	kernels[name] = reg
}

// ExactKernel reports whether name was registered with
// RegisterExactKernel.
func ExactKernel(name string) bool {
	kernelMu.RLock()
	defer kernelMu.RUnlock()
	return kernels[name].exact
}

// KernelNames returns every registered kernel name, sorted.
func KernelNames() []string {
	kernelMu.RLock()
	defer kernelMu.RUnlock()
	out := make([]string, 0, len(kernels))
	for name := range kernels {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// BuildKernel resolves a registered kernel and rebuilds its batch
// evaluator from the serialized parameters. The registration pins the
// kernel's component count (a sized kernel's params do): a request
// with a different dim (a version-skewed coordinator, a hand-built
// job) is an error here, not a mis-strided buffer or an out-of-range
// panic downstream. A split kernel has no batch evaluator, so it is an
// error too.
func BuildKernel(name string, params json.RawMessage, dim int) (BatchEvalFunc, error) {
	k, _, err := buildKernel(name, params, dim)
	if err != nil {
		return nil, err
	}
	if k.recLen > 0 {
		return nil, fmt.Errorf("montecarlo: kernel %q is a split kernel, evaluated only shard by shard", name)
	}
	return k.ev, nil
}

// kernel is a built kernel: its batch evaluator, or a split kernel's
// parts.
type kernel struct {
	ev     BatchEvalFunc
	split  SplitKernel
	recLen int // > 0 for a split kernel
}

// buildKernel is BuildKernel, building a split kernel's parts and
// draw key too.
func buildKernel(name string, params json.RawMessage, dim int) (k kernel, drawKey any, err error) {
	kernelMu.RLock()
	reg, ok := kernels[name]
	kernelMu.RUnlock()
	if !ok {
		return kernel{}, nil, fmt.Errorf("montecarlo: unknown kernel %q", name)
	}
	if reg.sized == nil && dim != reg.dim {
		return kernel{}, nil, fmt.Errorf("montecarlo: kernel %q has %d components, request wants %d", name, reg.dim, dim)
	}
	switch {
	case reg.split != nil:
		k.split, drawKey, err = reg.split(params)
		k.recLen = reg.recLen
	case reg.sized != nil:
		var n int
		k.ev, n, err = reg.sized(params)
		if err == nil && n != dim {
			err = fmt.Errorf("its params give %d components, request wants %d", n, dim)
		}
	default:
		k.ev, err = reg.factory(params)
	}
	if err != nil {
		return kernel{}, nil, fmt.Errorf("montecarlo: kernel %q: %w", name, err)
	}
	return k, drawKey, nil
}

// Request is one complete, serializable estimation: a registered
// kernel, its parameters, the sample plan, and the sampling strategy.
// The shard plan it implies — PlanShards(Seed, Samples) — is
// machine-independent, so any executor that evaluates every planned
// shard and merges in shard order reproduces the in-process result
// exactly.
//
// FirstShard, when > 0, restricts the request to shards [FirstShard,
// ShardCount(Samples)) of that plan. Shard streams depend only on
// (Seed, index), so a ranged request's accumulators are exactly the
// tail of the full request's — the seam the convergence driver
// (internal/sampling) uses to grow a budget geometrically without
// re-evaluating a single sample, on any executor.
type Request struct {
	Kernel  string          `json:"kernel"`
	Params  json.RawMessage `json:"params,omitempty"`
	Seed    uint64          `json:"seed"`
	Samples int             `json:"samples"`
	Dim     int             `json:"dim"`
	// Sampler names the registered sampling strategy ("" = plain). It
	// is part of the estimation's identity: it travels over the dist
	// wire and is folded into the cache key.
	Sampler string `json:"sampler,omitempty"`
	// FirstShard is the first shard index of the plan to evaluate
	// (0 = the whole plan).
	FirstShard int `json:"first_shard,omitempty"`
}

// Validate reports whether the request is well-formed (it does not
// check that the kernel or sampler is registered; BuildKernel does).
func (r Request) Validate() error {
	if r.Kernel == "" {
		return fmt.Errorf("montecarlo: request missing kernel name")
	}
	if r.Samples < 1 {
		return fmt.Errorf("montecarlo: request wants %d samples (must be >= 1)", r.Samples)
	}
	if r.Dim < 1 {
		return fmt.Errorf("montecarlo: request dim %d (must be >= 1)", r.Dim)
	}
	if r.FirstShard < 0 || r.FirstShard >= ShardCount(r.Samples) {
		return fmt.Errorf("montecarlo: request first shard %d out of plan range [0,%d)", r.FirstShard, ShardCount(r.Samples))
	}
	return nil
}

// SampleSpan returns the number of samples the request actually
// evaluates: Samples minus the FirstShard-skipped prefix. Executors
// use it to credit throughput accounting.
func (r Request) SampleSpan() int {
	return r.Samples - r.FirstShard*ShardSize
}

// Executor evaluates a Request's full shard plan and returns one
// merged Accumulator per component. Implementations must merge shard
// accumulators in shard order so results are bit-identical to the
// in-process path.
type Executor interface {
	EstimateVec(ctx context.Context, req Request) ([]Accumulator, error)
}

// Local is the in-process executor and the default: the whole shard
// plan evaluated by the RunShards pool. A plan started without an
// executor, and every decorator that is given a nil inner executor
// (the cache, the sampling chain), uses it.
type Local struct{}

// EstimateVec implements Executor.
func (Local) EstimateVec(ctx context.Context, req Request) ([]Accumulator, error) {
	return RunRequest(ctx, req)
}

// prepared is a request made ready for in-process evaluation: checked,
// with its kernel built and its sampler looked up, and for a split
// kernel its shards' memo key, less the shard fields. At 128 bytes it
// is as large as a closure captures by copy: any larger and each
// RunShards call would move it to the heap.
type prepared struct {
	kernel
	sp  Sampler
	dim int
	key memoKey
}

// prepare is the one request-preparation step RunRequest and
// EvaluateShards share: validate, build the kernel, look up the
// sampler.
func prepare(req Request) (prepared, error) {
	if err := req.Validate(); err != nil {
		return prepared{}, err
	}
	k, drawKey, err := buildKernel(req.Kernel, req.Params, req.Dim)
	if err != nil {
		return prepared{}, err
	}
	sp, err := lookupSampler(req.Sampler)
	if err != nil {
		return prepared{}, err
	}
	p := prepared{kernel: k, sp: sp, dim: req.Dim}
	if k.recLen > 0 {
		p.key = memoKey{kernel: req.Kernel, draw: drawKey, seed: req.Seed, sampler: req.Sampler}
		if _, plain := sp.(plainSampler); plain {
			p.key.sampler = ""
		}
	}
	return p, nil
}

// RunRequest evaluates a request in-process: every planned shard (from
// FirstShard on) through the worker pool, merged in shard order. It
// is what Local runs. A split kernel's shards reuse the records that
// the draw memo (memo.go) kept from any earlier request of the process.
func RunRequest(ctx context.Context, req Request) ([]Accumulator, error) {
	p, err := prepare(req)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	first := req.FirstShard
	shards := PlanShards(req.Seed, req.Samples)[first:]
	accs := make([][]Accumulator, len(shards))
	RunShards(shards, func(s Shard) {
		accs[s.Index-first] = p.shard(s)
	})
	merged := make([]Accumulator, req.Dim)
	for i := range accs {
		for j := 0; j < req.Dim; j++ {
			merged[j].Merge(accs[i][j])
		}
	}
	return merged, nil
}

// EvaluateShards evaluates the kernel over the given shard indices
// only, returning per-shard accumulators positionally (result[i]
// corresponds to indices[i]). Indices must be duplicate-free: a
// shard's random source is single-stream state, so evaluating the same
// index twice in one pool sweep would race on it. This is the worker
// server's entry point: the coordinator sends index batches and merges
// the states itself. Only the batch's shards are planned: their
// sources are derived from the seed's split stream without the rest of
// the plan's. A split kernel's shards share the draw memo with
// RunRequest's, so a worker reuses the records of any earlier request
// it served in the same process: a worker in a coordinator's process
// shares them with the coordinator's local requests too.
func EvaluateShards(req Request, indices []int) ([][]Accumulator, error) {
	p, err := prepare(req)
	if err != nil {
		return nil, err
	}
	count := ShardCount(req.Samples)
	position := make(map[int]int, len(indices))
	for i, idx := range indices {
		if idx < req.FirstShard || idx >= count {
			return nil, fmt.Errorf("montecarlo: shard index %d out of range [%d,%d)", idx, req.FirstShard, count)
		}
		if _, dup := position[idx]; dup {
			return nil, fmt.Errorf("montecarlo: duplicate shard index %d", idx)
		}
		position[idx] = i
	}
	selected := planShardsAt(req.Seed, req.Samples, indices)
	results := make([][]Accumulator, len(indices))
	RunShards(selected, func(s Shard) {
		results[position[s.Index]] = p.shard(s)
	})
	return results, nil
}

// batchChunk is the number of samples evaluated per batch-kernel call:
// large enough to amortize the indirect call, small enough that the
// sample buffer (batchChunk × dim float64s) stays L1/L2-resident.
const batchChunk = 512

// chunkBufs recycles the shard loop's sample buffers, so a request
// allocates one per concurrently evaluated shard rather than one per
// shard. The buffer is zeroed before every chunk, so what a previous
// shard left in it never reaches a kernel. The record scratch of split
// shards the memo does not take comes from granules (memo.go) the same
// way.
var chunkBufs = sync.Pool{New: func() any { return new([]float64) }}

// shard evaluates one shard of the prepared request exactly the way
// the tests' closure-based MeanVec does, so the two produce
// bit-identical accumulators. Samples are evaluated a chunk at a time
// into a pooled flat buffer and folded into the accumulators in sample
// order (fold). Under the plain sampler the kernel draws a chunk from
// the shard's stream per call; under any other it runs one sample per
// call over the sampler's stream, each sample on its own source. A
// split kernel draws its records the same way, a chunk or a sample at
// a time, and evaluates them a chunk at a time: this loop is its one
// evaluation path, on any executor. Its records go to the draw memo's
// granules, or, when the memo cannot take the shard, to a pooled
// scratch granule; when the memo already holds them the shard only
// evaluates.
func (p prepared) shard(s Shard) []Accumulator {
	dim := p.dim
	accs := make([]Accumulator, dim)
	defer addEvaluatedSamples(s.N)
	var rec *records
	var hit bool
	if p.recLen > 0 {
		k := p.key
		k.index, k.n = s.Index, s.N
		rec, hit = lookup(k)
	}
	var stream SampleStream
	if _, plain := p.sp.(plainSampler); !hit && !plain {
		stream = p.sp.Stream(s.N, s.Src)
	}
	var scratch *granule
	if p.recLen > 0 && rec == nil {
		scratch = granules.Get().(*granule)
		defer granules.Put(scratch)
	}
	// The pooled buffer holds a chunk of rows and, after them, the
	// fold's group sums.
	chunk := min(batchChunk, s.N)
	bp := chunkBufs.Get().(*[]float64)
	defer chunkBufs.Put(bp)
	if cap(*bp) < (chunk+1)*dim {
		*bp = make([]float64, (chunk+1)*dim)
	}
	f := fold{accs: accs, sum: (*bp)[chunk*dim : (chunk+1)*dim], group: p.sp.Group()}
	clear(f.sum)
	for c, done := 0, 0; done < s.N; c++ {
		n := min(chunk, s.N-done)
		b := (*bp)[:n*dim]
		clear(b)
		switch {
		case p.recLen > 0:
			g := scratch
			if rec != nil {
				g = rec.g[c]
			}
			r := g[:n*p.recLen]
			if !hit {
				p.draw(s.Src, stream, n, r)
			}
			p.split.Eval(r, n, b)
		case stream == nil:
			p.ev(s.Src, n, b)
		default:
			for i := 0; i < n; i++ {
				p.ev(stream.Next(), 1, b[i*dim:(i+1)*dim:(i+1)*dim])
			}
		}
		f.rows(b, n, dim)
		done += n
	}
	f.flush()
	if rec != nil {
		unpin(rec, !hit)
	}
	if hit {
		samplesReused.Add(int64(s.N))
	}
	return accs
}

// draw writes the records of n samples of a split kernel: one call on
// the shard's raw source, or one call per sample on the sampler's
// stream.
func (p prepared) draw(src *rng.Source, stream SampleStream, n int, rec []float64) {
	if stream == nil {
		p.split.Draw(src, n, rec)
		return
	}
	l := p.recLen
	for i := 0; i < n; i++ {
		p.split.Draw(stream.Next(), 1, rec[i*l:(i+1)*l:(i+1)*l])
	}
}

// fold accumulates a shard's evaluated rows. Under a group of 1 each
// row is one observation. Under a block sampler each group of
// consecutive rows folds into one observation, their mean, so that the
// accumulator's standard error sees the variance the block removes
// instead of only the marginal variance. Group boundaries are a pure
// function of the sample index; a trailing partial group (only in a
// plan's partial last shard, since Group divides ShardSize) averages
// over the rows it has.
type fold struct {
	accs  []Accumulator
	sum   []float64 // the open group's sums (zeroed; unused at group 1)
	group int
	k     int // rows in the open group
}

// rows folds n rows of the flat buffer b.
func (f *fold) rows(b []float64, n, dim int) {
	accs, sum := f.accs, f.sum
	if f.group == 1 {
		for i := 0; i < n; i++ {
			for j, v := range b[i*dim : (i+1)*dim] {
				accs[j].Add(v)
			}
		}
		return
	}
	for i := 0; i < n; i++ {
		for j, v := range b[i*dim : (i+1)*dim] {
			sum[j] += v
		}
		if f.k++; f.k == f.group {
			f.flush()
		}
	}
}

// flush folds the open group, if it has rows, into the accumulators.
func (f *fold) flush() {
	if f.k == 0 {
		return
	}
	inv := 1 / float64(f.k)
	for j, v := range f.sum {
		f.accs[j].Add(v * inv)
		f.sum[j] = 0
	}
	f.k = 0
}

// ExecError is the panic value raised when a kernel-routed estimation
// fails (an unreachable worker fleet, an unregistered kernel, bad
// parameters). The core estimators keep plain value-returning
// signatures — error plumbing through every closed-form helper would
// obscure the math — so executor failures unwind as a typed panic that
// engine.Run recovers into an ordinary error.
type ExecError struct {
	Kernel string
	Err    error
}

func (e *ExecError) Error() string {
	return fmt.Sprintf("montecarlo: kernel %q: %v", e.Kernel, e.Err)
}

func (e *ExecError) Unwrap() error { return e.Err }

// KernelMeanVec estimates the means of a registered vector-valued
// kernel through the executor of ctx's plan, under the plan's sampler
// (Submit; Local and plain outside any plan). Params must marshal to
// the JSON the kernel's factory expects. ctx also carries cancellation
// and the plan position of the task that issues the estimation.
// Results are bit-identical to the tests' MeanVec over the same
// integrand's per-sample form (for the plain sampler), at any executor.
func KernelMeanVec(ctx context.Context, kernel string, params any, seed uint64, n, dim int) []Estimate {
	raw, err := json.Marshal(params)
	if err != nil {
		panic(&ExecError{Kernel: kernel, Err: fmt.Errorf("marshal params: %w", err)})
	}
	req := Request{Kernel: kernel, Params: raw, Seed: seed, Samples: n, Dim: dim}
	if t := taskOf(ctx); t != nil {
		req.Sampler = t.plan.sampler
	}
	accs, err := Submit(ctx, req)
	if err != nil {
		panic(&ExecError{Kernel: kernel, Err: err})
	}
	if len(accs) != dim {
		panic(&ExecError{Kernel: kernel, Err: fmt.Errorf("executor returned %d components, want %d", len(accs), dim)})
	}
	out := make([]Estimate, dim)
	for j := range accs {
		out[j] = accs[j].Estimate()
	}
	return out
}
