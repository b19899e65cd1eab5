package montecarlo

import (
	"math"
	"testing"
	"unsafe"

	"carriersense/internal/rng"
)

// MeanVec is the closure-based reference the kernel-routed estimators
// are checked against. It estimates the means of a vector-valued
// integrand: f fills out with one sample per component. All components share the same
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

// scalarMean is MeanVec over a one-component integrand.
func scalarMean(seed uint64, n int, f func(*rng.Source) float64) Estimate {
	return MeanVec(seed, n, 1, func(src *rng.Source, out []float64) { out[0] = f(src) })[0]
}

func TestMeanOfUniform(t *testing.T) {
	est := scalarMean(1, 200_000, func(src *rng.Source) float64 { return src.Float64() })
	if math.Abs(est.Mean-0.5) > 0.005 {
		t.Errorf("mean = %v, want 0.5", est.Mean)
	}
	if est.N != 200_000 {
		t.Errorf("N = %d", est.N)
	}
	// stderr of U(0,1) mean over n samples is 1/sqrt(12n).
	want := 1 / math.Sqrt(12*200_000)
	if math.Abs(est.StdErr-want)/want > 0.1 {
		t.Errorf("stderr = %v, want ~%v", est.StdErr, want)
	}
}

func TestMeanDeterministicAcrossRuns(t *testing.T) {
	f := func(src *rng.Source) float64 { return src.Normal(0, 1) }
	a := scalarMean(99, 10_000, f)
	b := scalarMean(99, 10_000, f)
	if a.Mean != b.Mean {
		t.Errorf("same seed gave different means: %v vs %v", a.Mean, b.Mean)
	}
	c := scalarMean(100, 10_000, f)
	if a.Mean == c.Mean {
		t.Error("different seeds gave identical means")
	}
}

func TestStdErrShrinksWithN(t *testing.T) {
	f := func(src *rng.Source) float64 { return src.Exp(1) }
	small := scalarMean(5, 1_000, f)
	big := scalarMean(5, 100_000, f)
	if big.StdErr >= small.StdErr {
		t.Errorf("stderr should shrink: %v -> %v", small.StdErr, big.StdErr)
	}
	// Roughly 1/sqrt(n) scaling: factor ~10 for 100x samples.
	ratio := small.StdErr / big.StdErr
	if ratio < 5 || ratio > 20 {
		t.Errorf("stderr scaling ratio = %v, want ~10", ratio)
	}
}

func TestMeanVecCommonRandomNumbers(t *testing.T) {
	// Two components computed from the same draw must be perfectly
	// correlated: their difference has zero variance.
	est := MeanVec(7, 50_000, 2, func(src *rng.Source, out []float64) {
		x := src.Float64()
		out[0] = x
		out[1] = x + 1
	})
	if math.Abs((est[1].Mean-est[0].Mean)-1) > 1e-12 {
		t.Errorf("difference of means = %v, want exactly 1", est[1].Mean-est[0].Mean)
	}
	if math.Abs(est[0].StdErr-est[1].StdErr) > 1e-12 {
		t.Errorf("stderrs differ: %v vs %v", est[0].StdErr, est[1].StdErr)
	}
}

func TestRelErrZeroMean(t *testing.T) {
	e := Estimate{Mean: 0, StdErr: 1}
	if !math.IsInf(e.RelErr(), 1) {
		t.Errorf("RelErr with zero mean = %v, want +Inf", e.RelErr())
	}
}

func TestAccumulatorMerge(t *testing.T) {
	// Merging two halves must equal accumulating the whole.
	var whole, a, b Accumulator
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 100, -3}
	for i, x := range xs {
		whole.Add(x)
		if i < 5 {
			a.Add(x)
		} else {
			b.Add(x)
		}
	}
	a.Merge(b)
	ew, ea := whole.Estimate(), a.Estimate()
	if ew.N != ea.N || math.Abs(ew.Mean-ea.Mean) > 1e-12 || math.Abs(ew.StdErr-ea.StdErr) > 1e-12 {
		t.Errorf("merge mismatch: %+v vs %+v", ew, ea)
	}
}

func TestMergeEmpty(t *testing.T) {
	var a, b Accumulator
	a.Add(3)
	a.Merge(b) // empty b: no-op
	if got := a.Estimate(); got.N != 1 || got.Mean != 3 {
		t.Errorf("merge empty changed accumulator: %+v", got)
	}
	var c Accumulator
	c.Merge(a) // empty receiver adopts a
	if got := c.Estimate(); got.N != 1 || got.Mean != 3 {
		t.Errorf("empty merge failed: %+v", got)
	}
}

func TestPlanShardsFixedByBudget(t *testing.T) {
	shards := PlanShards(5, 3*ShardSize+17)
	if len(shards) != 4 {
		t.Fatalf("shard count = %d, want 4", len(shards))
	}
	total := 0
	for i, s := range shards {
		if s.Index != i {
			t.Errorf("shard %d has index %d", i, s.Index)
		}
		total += s.N
	}
	if total != 3*ShardSize+17 {
		t.Errorf("shard samples sum to %d", total)
	}
	if PlanShards(5, 0) != nil {
		t.Error("zero budget should plan no shards")
	}
}

// TestPlanShardsSourcesApart guards the pool against false sharing:
// consecutive shard streams, which two workers draw from at the same
// time, lie at least two cache lines apart. The streams themselves are
// still the root's successive Splits.
func TestPlanShardsSourcesApart(t *testing.T) {
	shards := PlanShards(5, 6*ShardSize)
	root := rng.New(5)
	for i, s := range shards {
		if got, want := s.Src.Uint64(), root.Split().Uint64(); got != want {
			t.Errorf("shard %d stream starts %x, root's Split %d gives %x", i, got, i, want)
		}
		if i == 0 {
			continue
		}
		a, b := uintptr(unsafe.Pointer(shards[i-1].Src)), uintptr(unsafe.Pointer(s.Src))
		if d := max(a, b) - min(a, b); d < 128 {
			t.Errorf("shards %d and %d: sources %d bytes apart, want >= 128", i-1, i, d)
		}
	}
}

// TestPlanShardsAtMatchesPlan checks the shards EvaluateShards plans for
// a batch, sparse and unordered index sets among them, against the
// whole plan's: the same index, sample count and stream, apart as
// PlanShards' streams are.
func TestPlanShardsAtMatchesPlan(t *testing.T) {
	const total = 9*ShardSize + 17
	for _, indices := range [][]int{{0}, {9}, {4}, {7, 2}, {9, 0, 5}, {3, 1, 8, 6}, {9, 8, 7, 6, 5, 4, 3, 2, 1, 0}} {
		plan := PlanShards(11, total)
		got := planShardsAt(11, total, indices)
		if len(got) != len(indices) {
			t.Fatalf("indices %v: %d shards", indices, len(got))
		}
		for i, idx := range indices {
			s, want := got[i], plan[idx]
			if s.Index != want.Index || s.N != want.N {
				t.Errorf("indices %v: shard %d is (index %d, %d samples), the plan's (%d, %d)", indices, idx, s.Index, s.N, want.Index, want.N)
			}
			for k := 0; k < 3; k++ {
				if a, b := s.Src.Uint64(), want.Src.Uint64(); a != b {
					t.Fatalf("indices %v: shard %d draw %d is %x, the plan's %x", indices, idx, k, a, b)
				}
			}
			if i == 0 {
				continue
			}
			a, b := uintptr(unsafe.Pointer(got[i-1].Src)), uintptr(unsafe.Pointer(s.Src))
			if d := max(a, b) - min(a, b); d < 128 {
				t.Errorf("indices %v: positions %d and %d: sources %d bytes apart, want >= 128", indices, i-1, i, d)
			}
		}
	}
}

func TestMeanInvariantUnderWorkerWidth(t *testing.T) {
	// The determinism contract behind the engine's -parallel flag:
	// worker width affects scheduling only, never the estimate.
	defer ResetMaxWorkers()
	f := func(src *rng.Source) float64 { return src.Normal(0, 1) }
	if err := SetMaxWorkers(1); err != nil {
		t.Fatal(err)
	}
	serial := scalarMean(42, 3*ShardSize+100, f)
	vecSerial := MeanVec(42, 2*ShardSize+9, 2, func(src *rng.Source, out []float64) {
		out[0] = src.Float64()
		out[1] = src.Exp(1)
	})
	for _, workers := range []int{2, 8, 64} {
		if err := SetMaxWorkers(workers); err != nil {
			t.Fatal(err)
		}
		got := scalarMean(42, 3*ShardSize+100, f)
		if got != serial {
			t.Errorf("workers=%d: %+v != serial %+v", workers, got, serial)
		}
		vec := MeanVec(42, 2*ShardSize+9, 2, func(src *rng.Source, out []float64) {
			out[0] = src.Float64()
			out[1] = src.Exp(1)
		})
		for j := range vec {
			if vec[j] != vecSerial[j] {
				t.Errorf("workers=%d: MeanVec[%d] %+v != serial %+v", workers, j, vec[j], vecSerial[j])
			}
		}
	}
}

func TestSetMaxWorkers(t *testing.T) {
	defer ResetMaxWorkers()
	if err := SetMaxWorkers(3); err != nil {
		t.Fatal(err)
	}
	if Workers() != 3 {
		t.Errorf("Workers() = %d, want 3", Workers())
	}
	for _, bad := range []int{0, -1, -100} {
		if err := SetMaxWorkers(bad); err == nil {
			t.Errorf("SetMaxWorkers(%d) accepted", bad)
		}
	}
	ResetMaxWorkers()
	if Workers() < 1 {
		t.Errorf("default Workers() = %d", Workers())
	}
}
