package core

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"carriersense/internal/montecarlo"
	"carriersense/internal/numeric"
	"carriersense/internal/rng"
	"carriersense/internal/sampling"
)

// An exact reference at σ > 0: the fused draw's shadowing factors are
// independent lognormals, so ⟨C_single⟩ is a 2-D integral (the radius
// and one shadowing axis) and ⟨C_conc⟩ a 4-D one (the disc and the
// signal and interference shadowing axes). The disc axes use
// numeric's Gauss-Legendre panels, each shadowing axis a Gauss-Hermite
// rule. ⟨C_mux⟩ is ⟨C_single⟩/2, and because the sensing shadow is
// independent of the rest, P(defer) is a normal tail and ⟨C_CS⟩ mixes
// ⟨C_mux⟩ and ⟨C_conc⟩ by it. The max and starvation components depend
// on both receivers or are discontinuous, and get no oracle here.

// gaussHermite returns the n-point Gauss-Hermite rule for the weight
// e^{-x²} on the real line, its nodes found by Newton iteration on the
// orthonormal Hermite recurrence.
func gaussHermite(n int) (x, w []float64) {
	x, w = make([]float64, n), make([]float64, n)
	pim4 := math.Pow(math.Pi, -0.25)
	var z float64
	for i := 0; i < (n+1)/2; i++ {
		// Starting guesses for the largest roots, then each from
		// the two before it.
		switch i {
		case 0:
			z = math.Sqrt(float64(2*n+1)) - 1.85575*math.Pow(float64(2*n+1), -0.16667)
		case 1:
			z -= 1.14 * math.Pow(float64(n), 0.426) / z
		case 2:
			z = 1.86*z - 0.86*x[0]
		case 3:
			z = 1.91*z - 0.91*x[1]
		default:
			z = 2*z - x[i-2]
		}
		var pp float64
		for iter := 0; iter < 100; iter++ {
			p1, p2 := pim4, 0.0
			for j := 1; j <= n; j++ {
				p3 := p2
				p2 = p1
				p1 = z*math.Sqrt(2/float64(j))*p2 - math.Sqrt(float64(j-1)/float64(j))*p3
			}
			pp = math.Sqrt(float64(2*n)) * p2
			z1 := z
			z = z1 - p1/pp
			if math.Abs(z-z1) <= 1e-15*math.Max(1, math.Abs(z)) {
				break
			}
		}
		x[i], x[n-1-i] = z, -z
		w[i] = 2 / (pp * pp)
		w[n-1-i] = w[i]
	}
	return x, w
}

// shadowRule is a quadrature rule for the linear shadowing factor
// L = 10^(σZ/10), Z standard normal: factors L_k with probabilities
// p_k. At σ = 0 it is the single point L = 1.
type shadowRule struct{ l, p []float64 }

func newShadowRule(sigmaDB float64, n int) shadowRule {
	if sigmaDB == 0 {
		return shadowRule{l: []float64{1}, p: []float64{1}}
	}
	x, w := gaussHermite(n)
	r := shadowRule{l: make([]float64, n), p: make([]float64, n)}
	for k := range x {
		// Z = √2·x turns the weight e^{-x²} into the normal density.
		r.l[k] = math.Exp(math.Ln10 / 10 * sigmaDB * math.Sqrt2 * x[k])
		r.p[k] = w[k] / math.Sqrt(math.Pi)
	}
	return r
}

// oracleGH is the Gauss-Hermite order of the σ > 0 oracle: GH16 and
// GH24 agree to about 2e-7 relative on these integrands.
const oracleGH = 16

// shadowedSingleQuad is ⟨C_single⟩ at the model's σ: the radial
// average of AvgSingleQuad with the signal shadow integrated by sh.
func shadowedSingleQuad(m *Model, rmax float64, sh shadowRule) float64 {
	g := func(r float64) float64 {
		s := m.pathGainSq(r*r) / m.noise
		sum := 0.0
		for k, l := range sh.l {
			sum += sh.p[k] * m.thr(s*l)
		}
		return 2 * r * sum / (rmax * rmax)
	}
	return numeric.GaussLegendre20Panels(g, 0, rmax, 64)
}

// shadowedConcQuad is ⟨C_conc⟩ at the model's σ: receiver 1's disc in
// polar coordinates (24 r-panels, and 6 θ-panels on the half disc
// y ≥ 0, which the integrand's y → −y symmetry doubles), with the
// signal and interference shadows each integrated by sh.
func shadowedConcQuad(m *Model, rmax, d float64, sh shadowRule) float64 {
	const rPanels, thetaPanels = 24, 6
	gl, gw := numeric.GL20Nodes, numeric.GL20Weights
	sum := 0.0
	hr, ht := rmax/rPanels, math.Pi/thetaPanels
	for i := 0; i < rPanels; i++ {
		rmid := (float64(i) + 0.5) * hr
		for a, xa := range gl {
			r := rmid + hr/2*xa
			for j := 0; j < thetaPanels; j++ {
				tmid := (float64(j) + 0.5) * ht
				for b, xb := range gl {
					sin, cos := math.Sincos(tmid + ht/2*xb)
					x, y := r*cos, r*sin
					dx := x + d
					sig := m.pathGainSq(r * r)
					intf := m.pathGainSq(dx*dx + y*y)
					node := 0.0
					for ks, ls := range sh.l {
						for ki, li := range sh.l {
							node += sh.p[ks] * sh.p[ki] * m.thr(sig*ls/(m.noise+intf*li))
						}
					}
					sum += gw[a] * gw[b] * r * node
				}
			}
		}
	}
	// The r and θ half-widths, doubled for the mirrored half disc,
	// over the disc's area.
	return sum * (hr / 2) * (ht / 2) * 2 / (math.Pi * rmax * rmax)
}

// deferProb is P(carrier sense defers) at the model's σ:
// P(L″ > senseThresh) for the sensing shadow L″ = 10^(σZ/10).
func deferProb(pe *pointEval) float64 {
	return 1 - rng.NormalCDF(10*math.Log10(pe.senseThresh)/pe.sigma)
}

func TestShadowedOracleLimits(t *testing.T) {
	x, w := gaussHermite(oracleGH)
	var m0, m2 float64
	for k := range x {
		m0 += w[k]
		m2 += w[k] * x[k] * x[k]
	}
	if math.Abs(m0-math.Sqrt(math.Pi)) > 1e-14 || math.Abs(m2-math.Sqrt(math.Pi)/2) > 1e-14 {
		t.Fatalf("GH%d moments %v, %v; want √π, √π/2", oracleGH, m0, m2)
	}
	// At σ = 0 the oracle must reduce to the σ = 0 quadratures; this
	// pins its disc grid.
	m := New(NoShadowParams())
	sh := newShadowRule(0, oracleGH)
	for _, rmax := range []float64{20, 120} {
		if got, want := shadowedSingleQuad(m, rmax, sh), m.AvgSingleQuad(rmax); math.Abs(got-want) > 1e-12*want {
			t.Errorf("σ=0 R_max=%v: oracle ⟨C_single⟩ %v, AvgSingleQuad %v", rmax, got, want)
		}
		if got, want := shadowedConcQuad(m, rmax, 55, sh), m.AvgConcQuad(rmax, 55); math.Abs(got-want) > 1e-7*want {
			t.Errorf("σ=0 R_max=%v: oracle ⟨C_conc⟩ %v, AvgConcQuad %v", rmax, got, want)
		}
	}
	// At σ = 8 the shadow axes are converged: a finer rule moves
	// ⟨C_single⟩ by far less than any Monte Carlo standard error.
	m8 := New(DefaultParams())
	for _, rmax := range []float64{20, 120} {
		a := shadowedSingleQuad(m8, rmax, newShadowRule(8, oracleGH))
		b := shadowedSingleQuad(m8, rmax, newShadowRule(8, 24))
		if math.Abs(a-b) > 1e-6*b {
			t.Errorf("σ=8 R_max=%v: ⟨C_single⟩ GH%d %v vs GH24 %v", rmax, oracleGH, a, b)
		}
	}
}

// TestShadowedKernelsMatchOracle pins the σ = 8 means of the point
// kernels, on plain sources and on the sobol sampler's uniform-hooked
// ones (where every shadowing normal goes through rng.NormalQuantile),
// to the oracle within 4 standard errors at fixed seeds. A wrong
// shadowing transform moves a mean by many standard errors; the golden
// artifacts would only record it.
func TestShadowedKernelsMatchOracle(t *testing.T) {
	const d, dThresh, dThresh2, n = 55.0, 40.0, 60.0, 1 << 17
	m := New(DefaultParams())
	sh := newShadowRule(m.params.SigmaDB, oracleGH)
	for _, c := range []struct {
		rmax, conc float64 // conc: the oracle's value when first computed
	}{{20, 4.517929}, {120, 1.222989}} {
		single := shadowedSingleQuad(m, c.rmax, sh)
		conc := shadowedConcQuad(m, c.rmax, d, sh)
		if math.Abs(conc-c.conc) > 1e-6*c.conc {
			t.Errorf("R_max=%v: oracle ⟨C_conc⟩ %.7f, earlier %.6f", c.rmax, conc, c.conc)
		}
		pDefer := deferProb(m.newPointEval(c.rmax, d, dThresh))
		pDefer2 := deferProb(m.newPointEval(c.rmax, d, dThresh2))
		mux := single / 2
		// Each kernel's components the oracle covers, as (index, value).
		type comp struct {
			j     int
			exact float64
		}
		want := map[string][]comp{
			KernelAverages: {
				{idxSingle, single},
				{idxMux, mux},
				{idxConc, conc},
				{idxCS, pDefer*mux + (1-pDefer)*conc},
				{idxDeferred, pDefer},
			},
			// The row's column 1 is at D.
			KernelAveragesRow: {
				{idxSingle, single},
				{idxMux, mux},
				{rowBlock + idxConc, conc},
				{rowBlock + idxCS, pDefer*mux + (1-pDefer)*conc},
				{rowBlock + idxDeferred, pDefer},
				{rowBlock + idxCS2, pDefer2*mux + (1-pDefer2)*conc},
				{rowBlock + idxDeferred2, pDefer2},
			},
			KernelSingle:     {{0, single}},
			KernelPolicyDiff: {{0, conc}, {1, mux}},
		}
		raw, err := json.Marshal(pointParams{Env: envSpecOf(m.params), Rmax: c.rmax, D: d, DThresh: dThresh})
		if err != nil {
			t.Fatal(err)
		}
		rowRaw, err := json.Marshal(rowParams{Env: envSpecOf(m.params), Rmax: c.rmax, Ds: []float64{20, d}, DThresh: dThresh, DThresh2: dThresh2})
		if err != nil {
			t.Fatal(err)
		}
		seed := uint64(c.rmax)
		for _, kernel := range []string{KernelAverages, KernelSingle, KernelPolicyDiff, KernelAveragesRow} {
			for _, sampler := range []string{"", sampling.Sobol} {
				seed++
				req := montecarlo.Request{Kernel: kernel, Params: raw, Seed: seed, Samples: n, Dim: pointDim(kernel), Sampler: sampler}
				if kernel == KernelAveragesRow {
					req.Params, req.Dim = rowRaw, rowDim(2)
				}
				accs, err := montecarlo.RunRequest(context.Background(), req)
				if err != nil {
					t.Fatal(err)
				}
				for _, w := range want[kernel] {
					j, exact := w.j, w.exact
					est := accs[j].Estimate()
					t.Logf("%s %q R_max=%v component %d: %.6f ± %.6f, oracle %.6f", kernel, sampler, c.rmax, j, est.Mean, est.StdErr, exact)
					if math.Abs(est.Mean-exact) > 4*est.StdErr {
						t.Errorf("%s sampler %q R_max=%v component %d: mean %v ± %v, oracle %v (%.1f standard errors)",
							kernel, sampler, c.rmax, j, est.Mean, est.StdErr, exact, math.Abs(est.Mean-exact)/est.StdErr)
					}
				}
			}
		}
	}
}
