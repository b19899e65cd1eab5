package core

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"carriersense/internal/montecarlo"
	"carriersense/internal/numeric"
	"carriersense/internal/sampling"
)

// TestAveragesRowMatchesAverages checks the row estimate column by
// column against EstimateAverages at the row's seed, bit for bit, under
// every sampler, at σ 8 and 0: each column's first result at the first
// threshold, its second at the second. The budget ends in a partial
// shard.
func TestAveragesRowMatchesAverages(t *testing.T) {
	const n = 2*montecarlo.ShardSize + 300
	ds := []float64{20, 55, 120}
	for _, sampler := range []string{sampling.Plain, sampling.Stratified, sampling.Sobol} {
		ctx := montecarlo.WithPlan(context.Background(), nil, sampler)
		for _, sigma := range []float64{8, 0} {
			p := DefaultParams()
			p.SigmaDB = sigma
			m := New(p)
			fixed, opt := m.EstimateAveragesRow(ctx, 31, n, 40, ds, 55, 40)
			for j, d := range ds {
				if want := m.EstimateAverages(ctx, 31, n, 40, d, 55); fixed[j] != want {
					t.Errorf("%s σ=%v D=%v: row gives %+v, core/averages %+v", sampler, sigma, d, fixed[j], want)
				}
				if want := m.EstimateAverages(ctx, 31, n, 40, d, 40); opt[j] != want {
					t.Errorf("%s σ=%v D=%v second threshold: row gives %+v, core/averages %+v", sampler, sigma, d, opt[j], want)
				}
			}
		}
	}
}

// TestAveragesRowDimFollowsParams checks that the registry takes the
// row kernel's component count from its params: a request is built at
// rowDim(len(ds)) and refused at any other count, or with no D.
func TestAveragesRowDimFollowsParams(t *testing.T) {
	for _, ds := range [][]float64{{55}, {20, 55, 120}, {}} {
		raw, err := json.Marshal(rowParams{Env: envSpecOf(DefaultParams()), Rmax: 40, Ds: ds, DThresh: 55, DThresh2: 40})
		if err != nil {
			t.Fatal(err)
		}
		for _, dim := range []int{rowDim(len(ds)) - 1, rowDim(len(ds)), rowDim(len(ds)) + rowBlock} {
			_, err := montecarlo.BuildKernel(KernelAveragesRow, raw, dim)
			if ok := len(ds) > 0 && dim == rowDim(len(ds)); ok != (err == nil) {
				t.Errorf("%d Ds at dim %d: err = %v", len(ds), dim, err)
			}
		}
	}
}

func TestQuadratureMatchesMonteCarloSigmaZero(t *testing.T) {
	m := New(NoShadowParams())
	const rmax, d = 40.0, 55.0
	a := m.EstimateAverages(context.Background(), 1, 400_000, rmax, d, 55)
	quadSingle := m.AvgSingleQuad(rmax)
	if rel := math.Abs(a.Single.Mean-quadSingle) / quadSingle; rel > 0.01 {
		t.Errorf("MC single %v vs quadrature %v (rel %v)", a.Single.Mean, quadSingle, rel)
	}
	quadConc := m.AvgConcQuad(rmax, d)
	if rel := math.Abs(a.Conc.Mean-quadConc) / quadConc; rel > 0.01 {
		t.Errorf("MC conc %v vs quadrature %v (rel %v)", a.Conc.Mean, quadConc, rel)
	}
}

func TestMuxIsHalfSingle(t *testing.T) {
	m := New(DefaultParams())
	a := m.EstimateAverages(context.Background(), 2, 50_000, 40, 55, 55)
	if math.Abs(a.Mux.Mean-a.Single.Mean/2) > 1e-12 {
		t.Errorf("mux %v != single/2 %v", a.Mux.Mean, a.Single.Mean/2)
	}
}

func TestConcurrencyLimits(t *testing.T) {
	m := New(NoShadowParams())
	single := m.AvgSingleQuad(40)
	// D → ∞: concurrency approaches the no-competition throughput.
	farConc := m.AvgConcQuad(40, 2000)
	if math.Abs(farConc-single)/single > 0.02 {
		t.Errorf("far concurrency %v, want ~single %v", farConc, single)
	}
	// D → 0: concurrency collapses well below multiplexing ("not
	// quite zero, but extremely poor").
	nearConc := m.AvgConcQuad(40, 0.5)
	if nearConc > single/4 {
		t.Errorf("near concurrency %v, want << single %v", nearConc, single)
	}
	if nearConc <= 0 {
		t.Error("near concurrency should not be exactly zero")
	}
}

func TestOptimalDominatesAllPolicies(t *testing.T) {
	m := New(DefaultParams())
	for _, d := range []float64{20, 55, 120} {
		a := m.EstimateAverages(context.Background(), 3, 100_000, 40, d, 55)
		// C_max ≥ both pure policies (same configurations, so this
		// holds up to the tiny asymmetry of pair sampling).
		if a.Max.Mean < a.Mux.Mean*0.995 {
			t.Errorf("D=%v: optimal %v below mux %v", d, a.Max.Mean, a.Mux.Mean)
		}
		if a.Max.Mean < a.Conc.Mean*0.995 {
			t.Errorf("D=%v: optimal %v below conc %v", d, a.Max.Mean, a.Conc.Mean)
		}
		// CS is sandwiched between the worst and best pure policies.
		lo := math.Min(a.Mux.Mean, a.Conc.Mean)
		if a.CS.Mean < lo*0.995 {
			t.Errorf("D=%v: CS %v below both pure policies (%v)", d, a.CS.Mean, lo)
		}
		// UB bound: ⟨C_max⟩ ≤ ⟨C_UBmax⟩.
		if a.Max.Mean > a.UBMax.Mean*1.005 {
			t.Errorf("D=%v: Max %v above UBMax %v", d, a.Max.Mean, a.UBMax.Mean)
		}
	}
}

func TestEfficiencyInUnitRange(t *testing.T) {
	m := New(DefaultParams())
	a := m.EstimateAverages(context.Background(), 4, 100_000, 40, 55, 55)
	eff := a.Efficiency()
	if eff <= 0.5 || eff > 1.001 {
		t.Errorf("efficiency = %v, want in (0.5, 1]", eff)
	}
}

func TestDeferredFractionMonotoneInD(t *testing.T) {
	m := New(DefaultParams())
	prev := 1.1
	for _, d := range []float64{20, 40, 55, 80, 120} {
		a := m.EstimateAverages(context.Background(), 5, 50_000, 40, d, 55)
		got := a.DeferredFraction.Mean
		if got > prev+0.02 {
			t.Errorf("deferral fraction rose with D at %v: %v > %v", d, got, prev)
		}
		prev = got
	}
	// At D = Dthresh the sensing shadowing is symmetric: deferral
	// probability is 1/2.
	a := m.EstimateAverages(context.Background(), 6, 100_000, 40, 55, 55)
	if math.Abs(a.DeferredFraction.Mean-0.5) > 0.02 {
		t.Errorf("deferral at threshold = %v, want 0.5", a.DeferredFraction.Mean)
	}
}

func TestCurvesShape(t *testing.T) {
	m := New(NoShadowParams())
	grid := numeric.LinSpace(5, 200, 14)
	pts := m.Curves(context.Background(), 7, 60_000, 55, 55, grid, 0)
	if len(pts) != len(grid) {
		t.Fatalf("got %d points", len(pts))
	}
	// Multiplexing flat in D.
	for i := 1; i < len(pts); i++ {
		if rel := math.Abs(pts[i].Mux-pts[0].Mux) / pts[0].Mux; rel > 0.03 {
			t.Errorf("mux varies with D: %v vs %v", pts[i].Mux, pts[0].Mux)
		}
	}
	// Concurrency increasing in D (allowing MC noise).
	for i := 1; i < len(pts); i++ {
		if pts[i].Conc < pts[i-1].Conc*0.97 {
			t.Errorf("conc dropped at D=%v", pts[i].D)
		}
	}
	// Optimal converges to mux at small D and to conc at large D.
	first, last := pts[0], pts[len(pts)-1]
	if math.Abs(first.Max-first.Mux)/first.Mux > 0.03 {
		t.Errorf("optimal at small D %v, want ~mux %v", first.Max, first.Mux)
	}
	if math.Abs(last.Max-last.Conc)/last.Conc > 0.03 {
		t.Errorf("optimal at large D %v, want ~conc %v", last.Max, last.Conc)
	}
}

func TestCurvesNormalization(t *testing.T) {
	m := New(NoShadowParams())
	norm := m.NormalizationConstant(context.Background(), 8, 0)
	quad := m.AvgSingleQuad(20)
	if math.Abs(norm-quad) > 1e-9 {
		t.Errorf("normalizer %v, want quadrature %v", norm, quad)
	}
	pts := m.Curves(context.Background(), 8, 20_000, 20, 55, []float64{1e4}, norm)
	// At huge D, a normalized R_max=20 concurrency curve approaches 1.
	if math.Abs(pts[0].Conc-1) > 0.03 {
		t.Errorf("normalized far conc = %v, want ~1", pts[0].Conc)
	}
}

func TestNormalizationConstantShadowed(t *testing.T) {
	m := New(DefaultParams())
	norm := m.NormalizationConstant(context.Background(), 9, 200_000)
	// Shadowing raises the linear mean (§3.4), so the shadowed
	// normalizer exceeds the σ=0 quadrature value.
	quad := New(NoShadowParams()).AvgSingleQuad(20)
	if norm <= quad {
		t.Errorf("shadowed normalizer %v not above sigma=0 %v", norm, quad)
	}
}

func TestConcurrencySlopeBound(t *testing.T) {
	// Footnote 12: for α = 3, σ = 0 the concurrency curve's slope (in
	// R_max = 20 normalized units) is bounded by 1.37/R_max for all
	// D > R_max. The slope is a central difference of the quadrature
	// curve.
	m := New(NoShadowParams())
	norm := m.AvgSingleQuad(20)
	for _, rmax := range []float64{20, 55, 120} {
		bound := 1.37 / rmax
		for _, d := range []float64{rmax * 1.05, rmax * 1.5, rmax * 2, rmax * 4} {
			h := math.Max(d*0.01, 0.05)
			slope := (m.AvgConcQuad(rmax, d+h) - m.AvgConcQuad(rmax, d-h)) / (2 * h) / norm
			if slope > bound*1.05 {
				t.Errorf("Rmax=%v D=%v: slope %v exceeds bound %v", rmax, d, slope, bound)
			}
			if slope < 0 {
				t.Errorf("Rmax=%v D=%v: negative slope %v", rmax, d, slope)
			}
		}
	}
}
