package core

import (
	"math"
	"sort"
	"strings"
	"testing"

	"carriersense/internal/rng"
)

// The fused draw consumes every variate of the SampleConfig layout but
// transforms only the primitives an integrand reads. These tests hold
// it to a reference that draws and transforms everything.

// pointProjections maps each two-pair kernel to its per-sample
// integrand, the projection its batch applies to each draw.
var pointProjections = map[string]func(*pointEval, Evaluated, []float64){
	KernelAverages:     (*pointEval).averagesSample,
	KernelAveragesPair: (*pointEval).averagesPairSample,
	KernelSingle:       (*pointEval).singleSample,
	KernelBadSNR:       (*pointEval).badSNRSample,
	KernelPolicyDiff:   (*pointEval).policyDiffSample,
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

// pointKernelNames returns the two-pair kernel names in a fixed order.
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

// TestPointKernelsMatchFullDraw checks every two-pair kernel's batch
// against the full-draw reference: bit-equal outputs, and the source
// left at the same stream position (its next draw is equal).
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
				pe := m.newPointEval(rmax, 55, 55).withThreshold2(40)
				for _, kind := range []string{"plain", "hooked"} {
					seed++
					src, ref := sourcePair(kind, seed)
					got := make([]float64, n*dim)
					pointKernels[name].batch(pe)(src, n, got)
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

// BenchmarkPointKernel times each two-pair kernel's batch on a plain
// and a uniform-hooked source, in ns per sample.
func BenchmarkPointKernel(b *testing.B) {
	const chunk = 1024
	pe := New(DefaultParams()).newPointEval(40, 55, 55)
	for _, name := range pointKernelNames() {
		k := pointKernels[name]
		fn := k.batch(pe)
		out := make([]float64, chunk*k.dim)
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
}
