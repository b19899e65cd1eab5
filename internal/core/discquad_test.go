package core

import (
	"context"
	"fmt"
	"math"
	"testing"

	"carriersense/internal/capacity"
	"carriersense/internal/geometry"
	"carriersense/internal/montecarlo"
	"carriersense/internal/numeric"
)

func TestAvgConcQuadMatchesMonteCarlo(t *testing.T) {
	// The σ = 0 disc quadrature must agree with a Monte Carlo estimate
	// of the same integrand: threshold solves on ⟨C_conc⟩, so a wrong
	// quadrature would move every σ = 0 threshold.
	p := Params{Alpha: 3, SigmaDB: 0, NoiseDB: DefaultNoiseDB}
	const rmax, d = 55.0, 40.0
	m := New(p)
	accs, err := montecarlo.RunRequest(context.Background(),
		AveragesRequest(p, rmax, d, 55, 9, 8*montecarlo.ShardSize))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		j    int
		quad float64
	}{
		{idxSingle, m.AvgSingleQuad(rmax)},
		{idxConc, m.AvgConcQuad(rmax, d)},
	} {
		est := accs[c.j].Estimate()
		tol := 4*est.StdErr + 2e-3*math.Abs(c.quad)
		if math.Abs(est.Mean-c.quad) > tol {
			t.Errorf("component %d: quadrature %v vs σ=0 MC %v (stderr %v)", c.j, c.quad, est.Mean, est.StdErr)
		}
	}
}

// discQuadRef is one σ = 0 disc average of receiver 1's integrand f
// as nested GaussLegendre20Panels calls — the θ rule inside the r rule
// at the sweep's resolution — with the trigonometry done per node
// through geometry.Polar and f evaluated through the public policy
// formulas: the reference the fused, parallel sweep must match bit
// for bit.
func discQuadRef(m *Model, rmax, d float64, f func(m *Model, c Config) float64) float64 {
	inner := func(r float64) float64 {
		g := func(theta float64) float64 {
			p := geometry.Polar(r, theta)
			return f(m, Config{D: d, X1: p.X, Y1: p.Y, LSig1: 1, LInt1: 1})
		}
		return r * numeric.GaussLegendre20Panels(g, 0, 2*math.Pi, discThetaPanels)
	}
	return numeric.GaussLegendre20Panels(inner, 0, rmax, discRPanels) / (math.Pi * rmax * rmax)
}

func concAt(m *Model, c Config) float64 { return m.CConcurrent(c, 1) }

func TestAvgConcQuadBitIdenticalAcrossWidths(t *testing.T) {
	// AvgConcQuad is one fused sweep over the pool's width; it must
	// equal the nested-quadrature reference exactly, at every width.
	// D = 20 at R_max = 120 puts the interferer inside the disc. The
	// non-integer α takes pathGainSq's math.Pow branch, and the
	// discrete rate set takes the sweep's interface capacity call.
	t.Cleanup(montecarlo.ResetMaxWorkers)
	shannon := NoShadowParams()
	fractional := shannon
	fractional.Alpha = 2.5
	discrete := shannon
	discrete.Capacity = capacity.Discrete{Table: capacity.Table80211a}
	for _, pt := range []struct {
		env     string
		params  Params
		rmax, d float64
	}{
		{"shannon", shannon, 55, 40},
		{"shannon", shannon, 55, 70},
		{"shannon", shannon, 120, 20},
		{"alpha=2.5", fractional, 55, 70},
		{"discrete", discrete, 55, 40},
	} {
		m := New(pt.params)
		want := discQuadRef(m, pt.rmax, pt.d, concAt)
		for _, width := range []int{1, 0, 7} { // 0: the GOMAXPROCS default
			montecarlo.ResetMaxWorkers()
			if width > 0 {
				if err := montecarlo.SetMaxWorkers(width); err != nil {
					t.Fatal(err)
				}
			}
			if got := m.AvgConcQuad(pt.rmax, pt.d); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("%s R_max=%v D=%v width %d: AvgConcQuad %v, nested reference %v",
					pt.env, pt.rmax, pt.d, montecarlo.Workers(), got, want)
			}
		}
	}
}

// BenchmarkAvgConcQuad times the σ = 0 ⟨C_conc⟩ disc sweep in ms per
// call at pool width 1, with the interferer inside the R_max = 20 disc
// (D 20) and outside it (D 80).
func BenchmarkAvgConcQuad(b *testing.B) {
	b.Cleanup(montecarlo.ResetMaxWorkers)
	if err := montecarlo.SetMaxWorkers(1); err != nil {
		b.Fatal(err)
	}
	m := New(DefaultParams())
	for _, d := range []float64{20, 80} {
		b.Run(fmt.Sprintf("rmax=20/d=%v", d), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.AvgConcQuad(20, d)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/1e6, "ms/call")
		})
	}
}
