package core

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"carriersense/internal/montecarlo"
	"carriersense/internal/rng"
)

// kernelParams returns serialized params and the component count for a
// core kernel, in an environment with the given shadowing.
func kernelParams(t *testing.T, name string, sigmaDB float64) (json.RawMessage, int) {
	t.Helper()
	p := DefaultParams()
	p.SigmaDB = sigmaDB
	env := envSpecOf(p)
	var (
		v   any
		dim int
	)
	if k, ok := pointKernels[name]; ok {
		v, dim = pointParams{Env: env, Rmax: 40, D: 55, DThresh: 55}, k.dim
	} else if name == KernelAveragesRow {
		v, dim = rowParams{Env: env, Rmax: 40, Ds: testRowDs, DThresh: 55, DThresh2: 40}, rowDim(len(testRowDs))
	} else if name == KernelMulti {
		v, dim = multiParamsWire{Env: env, NPairs: 4, AreaRadius: 80, Rmax: 40, DThresh: 55, Rounds: 6}, nMultiIdx
	} else {
		t.Fatalf("no test params for kernel %s", name)
	}
	raw, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return raw, dim
}

// TestKernelsOneSamplePerCallMatchesChunk checks the invariant the
// sampler and control-variate paths rely on: a core kernel called once
// per sample (count = 1) computes exactly what one chunked call does on
// the same stream. A kernel that carries state between calls (a reused
// scratch it does not fully overwrite) breaks it; the third pass, with a
// freshly built kernel per sample, catches state kept across calls in
// either direction.
func TestKernelsOneSamplePerCallMatchesChunk(t *testing.T) {
	const n = 64
	var names []string
	for _, name := range montecarlo.KernelNames() {
		if strings.HasPrefix(name, "core/") {
			names = append(names, name)
		}
	}
	if len(names) < 5 {
		t.Fatalf("found %d core kernels (%v), want at least 5", len(names), names)
	}
	for _, name := range names {
		if name == KernelPolicyDiff {
			continue // a split kernel: TestPolicyDiffMatchesFullDraw checks its draw per call
		}
		for _, sigma := range []float64{0, 8} {
			raw, dim := kernelParams(t, name, sigma)
			build := func() montecarlo.BatchEvalFunc {
				fn, err := montecarlo.BuildKernel(name, raw, dim)
				if err != nil {
					t.Fatal(err)
				}
				return fn
			}
			chunk := make([]float64, n*dim)
			build()(rng.New(3), n, chunk)

			fn := build()
			single := make([]float64, n*dim)
			src := rng.New(3)
			for i := 0; i < n; i++ {
				fn(src, 1, single[i*dim:(i+1)*dim])
			}
			fresh := make([]float64, n*dim)
			src = rng.New(3)
			for i := 0; i < n; i++ {
				build()(src, 1, fresh[i*dim:(i+1)*dim])
			}
			for i := range chunk {
				if math.Float64bits(single[i]) != math.Float64bits(chunk[i]) {
					t.Errorf("%s σ=%v sample %d component %d: count=1 calls give %v, one chunk gives %v",
						name, sigma, i/dim, i%dim, single[i], chunk[i])
					break
				}
				if math.Float64bits(fresh[i]) != math.Float64bits(chunk[i]) {
					t.Errorf("%s σ=%v sample %d component %d: fresh kernel per call gives %v, one chunk gives %v",
						name, sigma, i/dim, i%dim, fresh[i], chunk[i])
					break
				}
			}
		}
	}
}
