package core

import (
	"context"
	"encoding/json"
	"math"
	"sort"
	"strings"
	"testing"

	"carriersense/internal/montecarlo"
	"carriersense/internal/rng"
	"carriersense/internal/sampling"
)

// The fused draw consumes every variate of the SampleConfig layout but
// transforms only the primitives an integrand reads. These tests hold
// it to a reference that draws and transforms everything.

// pointProjections maps each two-pair batch kernel to its per-sample
// integrand, the projection its batch applies to each draw.
var pointProjections = map[string]func(*pointEval, Evaluated, []float64){
	KernelAverages: (*pointEval).averagesSample,
	KernelSingle:   (*pointEval).singleSample,
	KernelBadSNR:   (*pointEval).badSNRSample,
}

// rowReference is the row kernel's reference: column j is the averages
// projection of the full draw at the row's j-th D, each column drawn
// from its own copy of the stream, plus CS and deferral under the
// second threshold.
func rowReference(row averagesRow, refs []*rng.Source, out []float64) {
	for j, pe := range row {
		e := fullDraw(pe, refs[j])
		var cell [nAverages]float64
		pe.averagesSample(e, cell[:])
		copy(out[:idxConc], cell[:idxConc])
		col := out[j*rowBlock : j*rowBlock+nAveragesPair]
		copy(col[idxConc:nAverages], cell[idxConc:])
		if e.LSense > pe.senseThresh2 {
			col[idxCS2], col[idxDeferred2] = cell[idxMux], 1
		} else {
			col[idxCS2], col[idxDeferred2] = cell[idxConc], 0
		}
	}
}

// testRowDs is the D grid of the tests' row kernel requests.
var testRowDs = []float64{20, 55, 120}

// rowRaw serializes row kernel params at testRowDs.
func rowRaw(tb testing.TB, m *Model, rmax, dThresh, dThresh2 float64) json.RawMessage {
	tb.Helper()
	raw, err := json.Marshal(rowParams{Env: envSpecOf(m.params), Rmax: rmax, Ds: testRowDs, DThresh: dThresh, DThresh2: dThresh2})
	if err != nil {
		tb.Fatal(err)
	}
	return raw
}

// policyDiffReference is the C_conc/C_mux pair of one configuration,
// the reference for the split policy-diff kernel.
func policyDiffReference(pe *pointEval, e Evaluated, out []float64) {
	out[0] = pe.m.thr(e.Sig1 / (pe.noise + e.Int1))
	out[1] = pe.m.thr(e.Sig1/pe.noise) / 2
}

// kernelPolicyDiffReference is a batch kernel that evaluates
// policyDiffReference over the full draw, registered for the tests
// that hold policy-diff's shards to it.
const kernelPolicyDiffReference = "core-test/policy-diff-reference"

func init() {
	montecarlo.RegisterKernel(kernelPolicyDiffReference, policyDiffDim, func(raw json.RawMessage) (montecarlo.BatchEvalFunc, error) {
		pe, err := pointEvalOf(raw)
		if err != nil {
			return nil, err
		}
		return montecarlo.BatchLoop(policyDiffDim, func(src *rng.Source, out []float64) {
			policyDiffReference(pe, fullDraw(pe, src), out)
		}), nil
	})
}

// pointBatch builds a two-pair batch kernel's registered evaluator
// from its serialized params at (R_max, D, D_thresh), as a request
// would.
func pointBatch(tb testing.TB, name string, m *Model, rmax, d, dThresh float64) montecarlo.BatchEvalFunc {
	tb.Helper()
	raw, err := json.Marshal(pointParams{Env: envSpecOf(m.params), Rmax: rmax, D: d, DThresh: dThresh})
	if err != nil {
		tb.Fatal(err)
	}
	fn, err := montecarlo.BuildKernel(name, raw, pointKernels[name].dim)
	if err != nil {
		tb.Fatal(err)
	}
	return fn
}

// fullDraw is the reference draw: the full SampleConfig layout with
// every primitive computed by the model's reference power formulas.
func fullDraw(pe *pointEval, src *rng.Source) Evaluated {
	return evaluate(pe.m, pe.m.SampleConfig(src, pe.rmax, pe.d))
}

// evaluate computes a configuration's primitives with the model's
// reference power formulas.
func evaluate(m *Model, c Config) Evaluated {
	return Evaluated{
		Sig1:   m.SignalPower(c, 1),
		Int1:   m.InterferencePower(c, 1),
		Sig2:   m.SignalPower(c, 2),
		Int2:   m.InterferencePower(c, 2),
		LSense: c.LSense,
	}
}

// pointDim returns a two-pair kernel's component count, the split
// policy-diff kernel's included.
func pointDim(name string) int {
	if name == KernelPolicyDiff {
		return policyDiffDim
	}
	return pointKernels[name].dim
}

// pointKernelNames returns the two-pair batch kernel names in a fixed
// order.
func pointKernelNames() []string {
	names := make([]string, 0, len(pointKernels))
	for name := range pointKernels {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// sourcePair returns two identical sources of the given kind: plain,
// or uniform-hooked (the seam the stratified and sobol samplers drive,
// where every normal is a NormalQuantile of one uniform).
func sourcePair(kind string, seed uint64) (*rng.Source, *rng.Source) {
	if kind == "plain" {
		return rng.New(seed), rng.New(seed)
	}
	a, b := rng.New(seed), rng.New(seed)
	return rng.WithUniforms(a.Float64), rng.WithUniforms(b.Float64)
}

// TestPointKernelsMatchFullDraw checks every two-pair batch kernel, and
// the row kernel at testRowDs, against the full-draw reference:
// bit-equal outputs, and the source left at the same stream position
// (its next draw is equal).
func TestPointKernelsMatchFullDraw(t *testing.T) {
	const n = 2000
	names := pointKernelNames()
	if len(names) != len(pointProjections) {
		t.Fatalf("kernels %v, projections for %d: every two-pair kernel needs one", names, len(pointProjections))
	}
	seed := uint64(1)
	for _, name := range names {
		project, ok := pointProjections[name]
		if !ok {
			t.Fatalf("no reference projection for %s", name)
		}
		dim := pointKernels[name].dim
		for _, sigma := range []float64{0, 8} {
			p := DefaultParams()
			p.SigmaDB = sigma
			m := New(p)
			for _, rmax := range []float64{20, 40, 120} {
				pe := m.newPointEval(rmax, 55, 55)
				for _, kind := range []string{"plain", "hooked"} {
					seed++
					src, ref := sourcePair(kind, seed)
					got := make([]float64, n*dim)
					pointBatch(t, name, m, rmax, 55, 55)(src, n, got)
					want := make([]float64, n*dim)
					for i := 0; i < n; i++ {
						project(pe, fullDraw(pe, ref), want[i*dim:(i+1)*dim])
					}
					for i := range want {
						if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
							t.Fatalf("%s σ=%v R_max=%v %s: sample %d component %d is %v, full draw gives %v",
								name, sigma, rmax, kind, i/dim, i%dim, got[i], want[i])
						}
					}
					if a, b := src.Float64(), ref.Float64(); a != b {
						t.Fatalf("%s σ=%v R_max=%v %s: after %d samples the next draw is %v, after the full draw %v",
							name, sigma, rmax, kind, n, a, b)
					}
				}
			}
		}
	}
	dim := rowDim(len(testRowDs))
	for _, sigma := range []float64{0, 8} {
		p := DefaultParams()
		p.SigmaDB = sigma
		m := New(p)
		for _, rmax := range []float64{20, 40, 120} {
			row, err := averagesRowOf(rowRaw(t, m, rmax, 55, 40))
			if err != nil {
				t.Fatal(err)
			}
			fn, err := montecarlo.BuildKernel(KernelAveragesRow, rowRaw(t, m, rmax, 55, 40), dim)
			if err != nil {
				t.Fatal(err)
			}
			for _, kind := range []string{"plain", "hooked"} {
				seed++
				src, _ := sourcePair(kind, seed)
				refs := make([]*rng.Source, len(row))
				for j := range refs {
					refs[j], _ = sourcePair(kind, seed)
				}
				got := make([]float64, n*dim)
				fn(src, n, got)
				want := make([]float64, n*dim)
				for i := 0; i < n; i++ {
					rowReference(row, refs, want[i*dim:(i+1)*dim])
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s σ=%v R_max=%v %s: sample %d component %d is %v, full draw gives %v",
							KernelAveragesRow, sigma, rmax, kind, i/dim, i%dim, got[i], want[i])
					}
				}
				next := src.Float64()
				for j, ref := range refs {
					if b := ref.Float64(); next != b {
						t.Fatalf("%s σ=%v R_max=%v %s: after %d samples the next draw is %v, after column %d's full draw %v",
							KernelAveragesRow, sigma, rmax, kind, n, next, j, b)
					}
				}
			}
		}
	}
}

// TestPolicyDiffMatchesFullDraw checks the split policy-diff kernel's
// parts against the full-draw reference: records drawn a chunk at a
// time equal records drawn one sample per call (the sampler path's
// contract), their evaluation is bit-equal to the reference, and
// either way the source is left where the full draw leaves it.
func TestPolicyDiffMatchesFullDraw(t *testing.T) {
	const n = 2000
	const l = policyDiffRecLen
	seed := uint64(1)
	for _, sigma := range []float64{0, 8} {
		p := DefaultParams()
		p.SigmaDB = sigma
		m := New(p)
		for _, rmax := range []float64{20, 40, 120} {
			raw, err := json.Marshal(pointParams{Env: envSpecOf(m.params), Rmax: rmax, D: 55})
			if err != nil {
				t.Fatal(err)
			}
			pe, err := pointEvalOf(raw)
			if err != nil {
				t.Fatal(err)
			}
			k := (*policyDiff)(pe)
			for _, kind := range []string{"plain", "hooked"} {
				seed++
				src, ref := sourcePair(kind, seed)
				single, _ := sourcePair(kind, seed)
				rec := make([]float64, n*l)
				k.Draw(src, n, rec)
				rec1 := make([]float64, n*l)
				for i := 0; i < n; i++ {
					k.Draw(single, 1, rec1[i*l:(i+1)*l])
				}
				got := make([]float64, n*policyDiffDim)
				k.Eval(rec, n, got)
				want := make([]float64, n*policyDiffDim)
				for i := 0; i < n; i++ {
					policyDiffReference(pe, fullDraw(pe, ref), want[i*policyDiffDim:(i+1)*policyDiffDim])
				}
				for i := range rec {
					if math.Float64bits(rec1[i]) != math.Float64bits(rec[i]) {
						t.Fatalf("σ=%v R_max=%v %s: record %d field %d is %v one sample per call, %v in one chunk",
							sigma, rmax, kind, i/l, i%l, rec1[i], rec[i])
					}
				}
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("σ=%v R_max=%v %s: sample %d component %d is %v, full draw gives %v",
							sigma, rmax, kind, i/policyDiffDim, i%policyDiffDim, got[i], want[i])
					}
				}
				next := ref.Float64()
				if a, b := src.Float64(), single.Float64(); a != next || b != next {
					t.Fatalf("σ=%v R_max=%v %s: after %d samples the next draw is %v (chunk) and %v (per call), after the full draw %v",
						sigma, rmax, kind, n, a, b, next)
				}
			}
		}
	}
}

// TestPolicyDiffShardsMatchReference holds the shard loop that
// evaluates the split policy-diff kernel to the reference batch kernel
// over the same shard plan and sampler streams: when a request draws
// the records into the draw memo, and when a later one evaluates the
// stored records, in the local pool and on the worker entry point. The
// plan ends in a partial shard. Seed 21 is this test's alone, so after
// evictMemo the first request draws every shard.
func TestPolicyDiffShardsMatchReference(t *testing.T) {
	const samples = 2*montecarlo.ShardSize + 300
	evictMemo(t)
	for _, sampler := range []string{sampling.Plain, sampling.Stratified, sampling.Sobol} {
		for _, sigma := range []float64{0, 8} {
			p := DefaultParams()
			p.SigmaDB = sigma
			raw, err := json.Marshal(pointParams{Env: envSpecOf(p), Rmax: 40, D: 55})
			if err != nil {
				t.Fatal(err)
			}
			req := montecarlo.Request{Kernel: kernelPolicyDiffReference, Params: raw, Seed: 21, Samples: samples, Dim: policyDiffDim, Sampler: sampler}
			if sampler == sampling.Plain {
				req.Sampler = ""
			}
			want, err := montecarlo.RunRequest(context.Background(), req)
			if err != nil {
				t.Fatal(err)
			}
			req.Kernel = KernelPolicyDiff
			reused := montecarlo.ReusedSamples()
			local := func() ([]montecarlo.Accumulator, error) { return montecarlo.RunRequest(context.Background(), req) }
			worker := func() ([]montecarlo.Accumulator, error) { return evaluateAllShards(req) }
			for _, path := range []struct {
				name string
				run  func() ([]montecarlo.Accumulator, error)
			}{{"draw", local}, {"worker reuse", worker}, {"reuse", local}} {
				got, err := path.run()
				if err != nil {
					t.Fatal(err)
				}
				for j := range want {
					if got[j] != want[j] {
						t.Errorf("%s σ=%v %s: component %d is %+v, the reference gives %+v",
							sampler, sigma, path.name, j, got[j].Estimate(), want[j].Estimate())
					}
				}
			}
			if got := montecarlo.ReusedSamples() - reused; got != 2*samples {
				t.Errorf("%s σ=%v: %d samples reused, want the two later requests' %d", sampler, sigma, got, 2*samples)
			}
		}
	}
}

// evaluateAllShards evaluates every shard of req through the worker
// entry point and merges them in shard order.
func evaluateAllShards(req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	indices := make([]int, montecarlo.ShardCount(req.Samples))
	for i := range indices {
		indices[i] = i
	}
	shards, err := montecarlo.EvaluateShards(req, indices)
	if err != nil {
		return nil, err
	}
	merged := make([]montecarlo.Accumulator, req.Dim)
	for _, accs := range shards {
		for j := range merged {
			merged[j].Merge(accs[j])
		}
	}
	return merged, nil
}

// TestDrawReadSetsMatchFullDraw checks draw under every read set, the
// ones no kernel declares included: each primitive read is bit-equal
// to the reference, and the source ends where the full draw leaves it.
func TestDrawReadSetsMatchFullDraw(t *testing.T) {
	const n = 500
	for _, sigma := range []float64{0, 8} {
		p := DefaultParams()
		p.SigmaDB = sigma
		pe := New(p).newPointEval(40, 55, 55)
		for r := reads(0); r <= readAll; r++ {
			for _, kind := range []string{"plain", "hooked"} {
				src, ref := sourcePair(kind, uint64(r)+1)
				for i := 0; i < n; i++ {
					got, want := pe.draw(src, r), fullDraw(pe, ref)
					if r&readRx1 == 0 {
						got.Sig1, got.Int1, want.Sig1, want.Int1 = 0, 0, 0, 0
					}
					if r&readRx2 == 0 {
						got.Sig2, got.Int2, want.Sig2, want.Int2 = 0, 0, 0, 0
					}
					if r&readSense == 0 {
						got.LSense, want.LSense = 0, 0
					}
					if got != want {
						t.Fatalf("σ=%v reads %03b %s: sample %d is %+v, full draw gives %+v", sigma, r, kind, i, got, want)
					}
				}
				if a, b := src.Float64(), ref.Float64(); a != b {
					t.Fatalf("σ=%v reads %03b %s: after %d draws the next draw is %v, after the full draw %v",
						sigma, r, kind, n, a, b)
				}
			}
		}
	}
}

// BenchmarkPointKernel times each two-pair kernel on a plain and a
// uniform-hooked source, in ns per sample: a batch kernel's batch, and
// policy-diff's draw followed by its evaluation. The row kernel at
// testRowDs reports ns per row sample, which serves len(testRowDs)
// points.
func BenchmarkPointKernel(b *testing.B) {
	const chunk = 1024
	m := New(DefaultParams())
	for _, name := range pointKernelNames() {
		fn := pointBatch(b, name, m, 40, 55, 55)
		out := make([]float64, chunk*pointKernels[name].dim)
		for _, kind := range []string{"plain", "hooked"} {
			b.Run(strings.TrimPrefix(name, "core/")+"/"+kind, func(b *testing.B) {
				src, _ := sourcePair(kind, 1)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					fn(src, chunk, out)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk), "ns/sample")
			})
		}
	}
	row, err := montecarlo.BuildKernel(KernelAveragesRow, rowRaw(b, m, 40, 55, 40), rowDim(len(testRowDs)))
	if err != nil {
		b.Fatal(err)
	}
	rowOut := make([]float64, chunk*rowDim(len(testRowDs)))
	for _, kind := range []string{"plain", "hooked"} {
		b.Run("averages-row/"+kind, func(b *testing.B) {
			src, _ := sourcePair(kind, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				row(src, chunk, rowOut)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk), "ns/sample")
		})
	}
	k := (*policyDiff)(m.newPointEval(40, 55, 0))
	rec := make([]float64, chunk*policyDiffRecLen)
	out := make([]float64, chunk*policyDiffDim)
	for _, kind := range []string{"plain", "hooked"} {
		b.Run("policy-diff/"+kind, func(b *testing.B) {
			src, _ := sourcePair(kind, 1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k.Draw(src, chunk, rec)
				k.Eval(rec, chunk, out)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*chunk), "ns/sample")
		})
	}
}
