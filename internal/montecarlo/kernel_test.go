package montecarlo

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"sync/atomic"
	"testing"

	"carriersense/internal/rng"
)

// The test kernel: a 2-component integrand with one serialized knob.
type testKernelParams struct {
	Offset float64 `json:"offset"`
}

func testKernelEval(offset float64) EvalFunc {
	return func(src *rng.Source, out []float64) {
		out[0] = src.Float64() + offset
		out[1] = src.Normal(0, 1)
	}
}

// batchKernelCalls counts calls into the hand-written batch kernel
// below: the plain path must evaluate it a chunk per call.
var batchKernelCalls atomic.Int64

func init() {
	RegisterKernel("test/vec", 2, func(raw json.RawMessage) (BatchEvalFunc, error) {
		var p testKernelParams
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, err
		}
		return BatchLoop(2, testKernelEval(p.Offset)), nil
	})
	// The same integrand as a hand-written batch loop, instrumented.
	RegisterKernel("test/batched", 2, func(raw json.RawMessage) (BatchEvalFunc, error) {
		var p testKernelParams
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, err
		}
		eval := testKernelEval(p.Offset)
		return func(src *rng.Source, count int, out []float64) {
			batchKernelCalls.Add(1)
			const dim = 2
			for i := 0; i < count; i++ {
				eval(src, out[i*dim:(i+1)*dim])
			}
		}, nil
	})
}

func TestAccumulatorStateRoundTrip(t *testing.T) {
	// States must survive JSON transport bit-exactly: the distributed
	// merge is only bit-identical to the local one if nothing rounds.
	src := rng.New(99)
	var acc Accumulator
	for i := 0; i < 1000; i++ {
		acc.Add(src.Normal(3, 7) * math.Pi)
	}
	data, err := json.Marshal(acc)
	if err != nil {
		t.Fatal(err)
	}
	var back Accumulator
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back != acc {
		t.Errorf("round trip changed accumulator: %+v vs %+v", back, acc)
	}
	if back.Estimate() != acc.Estimate() {
		t.Errorf("round trip changed estimate")
	}
	// FromState/State round-trip on tricky values.
	for _, v := range []float64{0, math.Copysign(0, -1), math.Inf(1), math.SmallestNonzeroFloat64, 1e300} {
		a := Accumulator{n: 3, mean: v, m2: v}
		if got := FromState(a.State()); got != a && !(math.IsNaN(got.mean) && math.IsNaN(a.mean)) {
			t.Errorf("FromState(State(%v)) = %+v", v, got)
		}
	}
}

func TestRunRequestMatchesMeanVec(t *testing.T) {
	// The kernel-routed path and the closure path must produce
	// bit-identical estimates: same shard plan, same eval, same merge
	// order.
	const n = 3*ShardSize + 217
	want := MeanVec(42, n, 2, testKernelEval(1.5))
	raw, _ := json.Marshal(testKernelParams{Offset: 1.5})
	accs, err := RunRequest(context.Background(), Request{
		Kernel: "test/vec", Params: raw, Seed: 42, Samples: n, Dim: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for j := range accs {
		if got := accs[j].Estimate(); got != want[j] {
			t.Errorf("component %d: kernel path %+v != closure path %+v", j, got, want[j])
		}
	}
	// And through the public KernelMeanVec entry point.
	got := KernelMeanVec(context.Background(), "test/vec", testKernelParams{Offset: 1.5}, 42, n, 2)
	for j := range got {
		if got[j] != want[j] {
			t.Errorf("KernelMeanVec[%d] = %+v, want %+v", j, got[j], want[j])
		}
	}
}

func TestBatchKernelBitIdenticalToPerSample(t *testing.T) {
	// A kernel evaluated a chunk per call must produce the same
	// accumulators, bit for bit, as the per-sample closure path — the
	// chunking is a scheduling optimization, never a numeric change.
	const n = 2*ShardSize + 403
	want := MeanVec(13, n, 2, testKernelEval(0.75))
	raw, _ := json.Marshal(testKernelParams{Offset: 0.75})
	req := Request{Kernel: "test/batched", Params: raw, Seed: 13, Samples: n, Dim: 2}

	batchKernelCalls.Store(0)
	accs, err := RunRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	for j := range accs {
		if got := accs[j].Estimate(); got != want[j] {
			t.Errorf("component %d: batch path %+v != closure path %+v", j, got, want[j])
		}
	}
	chunks := int64(0)
	for _, s := range PlanShards(13, n) {
		chunks += int64((s.N + batchChunk - 1) / batchChunk)
	}
	if got := batchKernelCalls.Load(); got != chunks {
		t.Errorf("plain path made %d kernel calls, want one per %d-sample chunk (%d)", got, batchChunk, chunks)
	}
	// The worker-server path (EvaluateShards) takes the same path.
	count := ShardCount(n)
	indices := make([]int, count)
	for i := range indices {
		indices[i] = i
	}
	perShard, err := EvaluateShards(req, indices)
	if err != nil {
		t.Fatal(err)
	}
	merged := make([]Accumulator, req.Dim)
	for _, accs := range perShard {
		for j := range merged {
			merged[j].Merge(accs[j])
		}
	}
	for j := range merged {
		if got := merged[j].Estimate(); got != want[j] {
			t.Errorf("component %d: shard-wise batch merge %+v != closure path %+v", j, got, want[j])
		}
	}
}

func TestKernelRejectsDimMismatch(t *testing.T) {
	// A registration pins the kernel's component count: a request with
	// a different Dim must fail cleanly, whether the kernel is written
	// in batch form or adapted from a per-sample one. A mis-strided
	// flat buffer would otherwise corrupt results silently, and a
	// too-short one would panic inside the shard pool.
	raw, _ := json.Marshal(testKernelParams{})
	for _, kernel := range []string{"test/batched", "test/vec"} {
		for _, dim := range []int{1, 3} {
			req := Request{Kernel: kernel, Params: raw, Seed: 1, Samples: 10, Dim: dim}
			if _, err := RunRequest(context.Background(), req); err == nil {
				t.Errorf("%s: dim %d accepted for a 2-component kernel", kernel, dim)
			}
			if _, err := EvaluateShards(req, []int{0}); err == nil {
				t.Errorf("%s: dim %d accepted by EvaluateShards for a 2-component kernel", kernel, dim)
			}
		}
	}
}

func TestEvaluateShardsMatchesFullPlan(t *testing.T) {
	// Evaluating the plan shard-by-shard (the worker server's path) and
	// merging in shard order must equal the in-process run.
	const n = 4*ShardSize + 9
	raw, _ := json.Marshal(testKernelParams{Offset: 0.25})
	req := Request{Kernel: "test/vec", Params: raw, Seed: 7, Samples: n, Dim: 2}
	want, err := RunRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	count := ShardCount(n)
	merged := make([]Accumulator, req.Dim)
	// Evaluate in two scrambled batches to mimic out-of-order workers.
	batches := [][]int{{3, 1}, {4, 0, 2}}
	byIndex := make([][]Accumulator, count)
	for _, batch := range batches {
		accs, err := EvaluateShards(req, batch)
		if err != nil {
			t.Fatal(err)
		}
		for i, idx := range batch {
			byIndex[idx] = accs[i]
		}
	}
	for idx := 0; idx < count; idx++ {
		for j := range merged {
			merged[j].Merge(byIndex[idx][j])
		}
	}
	for j := range merged {
		if merged[j] != want[j] {
			t.Errorf("component %d: shard-wise merge %+v != full plan %+v", j, merged[j], want[j])
		}
	}
}

func TestEvaluateShardsRejectsBadIndices(t *testing.T) {
	raw, _ := json.Marshal(testKernelParams{})
	req := Request{Kernel: "test/vec", Params: raw, Seed: 1, Samples: ShardSize, Dim: 2}
	for _, bad := range [][]int{{-1}, {1}, {99}} {
		if _, err := EvaluateShards(req, bad); err == nil {
			t.Errorf("indices %v accepted for a 1-shard plan", bad)
		}
	}
}

func TestRequestValidate(t *testing.T) {
	good := Request{Kernel: "test/vec", Seed: 1, Samples: 10, Dim: 1}
	if err := good.Validate(); err != nil {
		t.Errorf("valid request rejected: %v", err)
	}
	for _, bad := range []Request{
		{Kernel: "", Samples: 10, Dim: 1},
		{Kernel: "test/vec", Samples: 0, Dim: 1},
		{Kernel: "test/vec", Samples: 10, Dim: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid request %+v accepted", bad)
		}
	}
}

func TestKernelMeanVecPanicsWithExecError(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic for unknown kernel")
		}
		var execErr *ExecError
		if err, ok := r.(error); !ok || !errors.As(err, &execErr) {
			t.Fatalf("panic value %v is not an ExecError", r)
		}
	}()
	KernelMeanVec(context.Background(), "test/definitely-not-registered", nil, 1, 10, 1)
}

// TestKernelMeanVecRoutesThroughThePlan checks that an estimation goes
// to its plan's executor, at the plan's next position, stamped with
// the plan's sampler ("plain" stored as its canonical "").
func TestKernelMeanVecRoutesThroughThePlan(t *testing.T) {
	var reqs []Request
	var positions []Position
	exec := executorFunc(func(ctx context.Context, req Request) ([]Accumulator, error) {
		reqs = append(reqs, req)
		positions = append(positions, PositionOf(ctx))
		if req.Sampler != "" {
			return make([]Accumulator, req.Dim), nil // no sampler is registered here
		}
		return RunRequest(ctx, req)
	})
	want := MeanVec(5, ShardSize, 2, testKernelEval(0))
	ctx := WithPlan(context.Background(), exec, SamplerPlain)
	KernelMeanVec(ctx, "test/vec", testKernelParams{}, 5, ShardSize, 2)
	got := KernelMeanVec(ctx, "test/vec", testKernelParams{}, 5, ShardSize, 2)
	if len(reqs) != 2 || reqs[1].Sampler != "" {
		t.Fatalf("plan executor saw %+v, want two plain requests", reqs)
	}
	if !reflect.DeepEqual(positions, []Position{{0}, {1}}) {
		t.Errorf("positions %v, want [[0] [1]]", positions)
	}
	KernelMeanVec(WithPlan(context.Background(), exec, "stratified"), "test/vec", testKernelParams{}, 5, ShardSize, 2)
	if reqs[2].Sampler != "stratified" {
		t.Errorf("request stamped with sampler %q, want the plan's stratified", reqs[2].Sampler)
	}
	for j := range got {
		if got[j] != want[j] {
			t.Errorf("routed estimate differs at %d", j)
		}
	}
}

type executorFunc func(ctx context.Context, req Request) ([]Accumulator, error)

func (f executorFunc) EstimateVec(ctx context.Context, req Request) ([]Accumulator, error) {
	return f(ctx, req)
}

// raceEnabled is set in race builds (race_test.go).
var raceEnabled bool

// TestRunRequestAllocs guards the plain path's allocations per shard:
// each shard allocates its accumulator slice, and its sample buffer
// comes from a pool, so a request's allocation count grows by about
// one object per shard (two when every shard allocated its buffer).
func TestRunRequestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop buffers at random")
	}
	const maxPerShard = 1.25
	raw, err := json.Marshal(testKernelParams{Offset: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := SetMaxWorkers(2); err != nil {
		t.Fatal(err)
	}
	defer ResetMaxWorkers()
	allocs := func(shards int) float64 {
		req := Request{Kernel: "test/vec", Params: raw, Seed: 3, Samples: shards * ShardSize, Dim: 2}
		return testing.AllocsPerRun(5, func() {
			if _, err := RunRequest(context.Background(), req); err != nil {
				t.Fatal(err)
			}
		})
	}
	lo, hi := allocs(16), allocs(64)
	perShard := (hi - lo) / 48
	t.Logf("16 shards: %.0f allocs, 64 shards: %.0f allocs, %.2f per shard", lo, hi, perShard)
	if perShard > maxPerShard {
		t.Errorf("RunRequest allocates %.2f objects per shard, want <= %v", perShard, maxPerShard)
	}
}
