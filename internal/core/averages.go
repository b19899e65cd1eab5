package core

import (
	"math"
	"sync"

	"carriersense/internal/montecarlo"
	"carriersense/internal/numeric"
)

// Averages holds the expected per-pair throughput of every MAC policy
// for one (R_max, D) point, estimated over the receiver distribution
// and shadowing. All policies are evaluated on the *same* sampled
// configurations (common random numbers), so ratios such as
// CS/Max carry far less Monte Carlo noise than the individual values.
type Averages struct {
	Rmax, D          float64
	DThresh          float64 // threshold distance used for the CS policy
	Single           montecarlo.Estimate
	Mux              montecarlo.Estimate
	Conc             montecarlo.Estimate
	CS               montecarlo.Estimate
	Max              montecarlo.Estimate
	UBMax            montecarlo.Estimate
	Starved          montecarlo.Estimate // P[receiver 1 starved under concurrency] (<10% of UBMax)
	DeferredFraction montecarlo.Estimate // P[carrier sense defers]
}

// Efficiency returns carrier sense throughput as a fraction of
// optimal, the quantity the §3.2.5 tables report.
func (a Averages) Efficiency() float64 {
	if a.Max.Mean == 0 {
		return 0
	}
	return a.CS.Mean / a.Max.Mean
}

// indices into the MeanVec sample vector.
const (
	idxSingle = iota
	idxMux
	idxConc
	idxCS
	idxMax
	idxUBMax
	idxStarved
	idxDeferred
	nAverages
)

// EstimateAverages estimates all policy averages at one (R_max, D)
// point with n Monte Carlo configurations. dThresh sets the carrier
// sense threshold distance. The estimation runs through the installed
// executor (in-process by default, a worker fleet under `cs run
// -workers`); results are bit-identical either way.
func (m *Model) EstimateAverages(seed uint64, n int, rmax, d, dThresh float64) Averages {
	est := m.estimatePoint(KernelAverages, rmax, d, dThresh, seed, n)
	return Averages{
		Rmax: rmax, D: d, DThresh: dThresh,
		Single:           est[idxSingle],
		Mux:              est[idxMux],
		Conc:             est[idxConc],
		CS:               est[idxCS],
		Max:              est[idxMax],
		UBMax:            est[idxUBMax],
		Starved:          est[idxStarved],
		DeferredFraction: est[idxDeferred],
	}
}

// AvgSingleQuad computes ⟨C_single⟩(R_max) for the σ = 0 model by
// deterministic quadrature over the receiver disc. Only valid when
// SigmaDB == 0 (it ignores shadowing draws); callers assert that.
func (m *Model) AvgSingleQuad(rmax float64) float64 {
	f := func(r float64) float64 {
		c := Config{X1: r, LSig1: 1}
		return m.CSingle(c, 1)
	}
	// The integrand depends on r only; average over the disc with the
	// 2r/R_max² radial density. Panels concentrate near the origin
	// where capacity has its logarithmic peak.
	g := func(r float64) float64 { return 2 * r * f(r) / (rmax * rmax) }
	return numeric.GaussLegendre20Panels(g, 0, rmax, 64)
}

// AvgMuxQuad computes ⟨C_multiplexing⟩(R_max) for σ = 0 by quadrature.
func (m *Model) AvgMuxQuad(rmax float64) float64 {
	return m.AvgSingleQuad(rmax) / 2
}

// AvgConcQuad computes ⟨C_concurrent⟩(R_max, D) for σ = 0 by nested
// quadrature over the receiver disc.
func (m *Model) AvgConcQuad(rmax, d float64) float64 {
	conc, _ := m.concDiscQuad(rmax, d, false)
	return conc
}

// ring memoizes, for one r ring of the disc sweep, the terms of the
// upper-bound component that depend only on a node's squared radius
// q = x² + y²: the signal power and C_single/2. The 480 nodes of a
// ring round r²cos²θ + r²sin²θ to about five distinct q, so the
// sweep evaluates these once per distinct q, not once per node. A
// ⟨C_conc⟩-only sweep does not use it: saving one path gain per node
// costs more in the lookup than it gains.
type ring []ringNode

type ringNode struct{ q, s, mux float64 }

// at returns q's entry, computing it on first use.
func (rg *ring) at(m *Model, q float64) ringNode {
	for _, n := range *rg {
		if n.q == q {
			return n
		}
	}
	s := m.pathGainSq(q)
	n := ringNode{q: q, s: s, mux: m.thr(s/m.noise) / 2}
	*rg = append(*rg, n)
	return n
}

// The resolution of the σ = 0 disc averages: 20-point Gauss-Legendre
// panels, discRPanels in r and discThetaPanels in θ.
const discRPanels, discThetaPanels = 48, 24

// concDiscQuad averages ⟨C_conc⟩ over receiver 1's disc at σ = 0 and,
// when withUB is set, the per-receiver upper-bound component
// ⟨max(C_conc, C_mux)⟩, which depends on receiver 1's placement only.
//
// It is the nested GaussLegendre20Panels form — the θ rule inside the
// r rule, weighted by r, over π·R_max² — written out as one sweep with
// the integrand inline and the θ nodes' sines and cosines computed
// once. A node costs two path gains and one capacity evaluation; with
// the upper bound, the signal path gain and C_single/2 come from the
// node's ring. The partial sums run in the nested form's order
// (θ-panel, r-node, r-panel, then the r-panels in order), so both
// averages are bit-identical to it. The r-panels are striped over the
// Monte Carlo pool's width, each into its own slot, and the slots are
// added in panel order after the join: the result does not depend on
// width.
func (m *Model) concDiscQuad(rmax, d float64, withUB bool) (conc, ub float64) {
	gw := numeric.GL20Weights
	nq := len(gw)
	// As variables, the panel counts divide in float64 at run time, as
	// GaussLegendre20Panels' do, not exactly as constants would.
	rPanels, thetaPanels := discRPanels, discThetaPanels
	// The θ nodes are the same for every r. The expressions are
	// GaussLegendre20Panels' over [0, 2π].
	sins := make([]float64, thetaPanels*nq)
	coss := make([]float64, thetaPanels*nq)
	halves := make([]float64, thetaPanels)
	ht := (2 * math.Pi) / float64(thetaPanels)
	for j := range halves {
		a, b := float64(j)*ht, float64(j+1)*ht
		mid, half := (a+b)/2, (b-a)/2
		halves[j] = half
		for k, x := range numeric.GL20Nodes {
			sins[j*nq+k], coss[j*nq+k] = math.Sincos(mid + half*x)
		}
	}

	noise := m.noise
	hr := rmax / float64(rPanels)
	slots := make([][2]float64, rPanels)
	sweep := func(first, width int) {
		var rg ring
		for i := first; i < rPanels; i += width {
			a, b := float64(i)*hr, float64(i+1)*hr
			mid, half := (a+b)/2, (b-a)/2
			var acc0, acc1 float64
			for k, x := range numeric.GL20Nodes {
				r := mid + half*x
				rg = rg[:0]
				var in0, in1 float64
				for j, thHalf := range halves {
					var p0, p1 float64
					for l, w := range gw {
						x1, y1 := r*coss[j*nq+l], r*sins[j*nq+l]
						q, dx := x1*x1+y1*y1, x1+d
						nI := noise + m.pathGainSq(dx*dx+y1*y1)
						if withUB {
							n := rg.at(m, q)
							c := m.thr(n.s / nI)
							p0 += w * c
							p1 += w * math.Max(c, n.mux)
						} else {
							p0 += w * m.thr(m.pathGainSq(q)/nI)
						}
					}
					in0 += p0 * thHalf
					in1 += p1 * thHalf
				}
				acc0 += gw[k] * (r * in0)
				acc1 += gw[k] * (r * in1)
			}
			// One store per panel: neighbouring slots belong to other
			// goroutines and may share a cache line.
			slots[i] = [2]float64{acc0 * half, acc1 * half}
		}
	}
	width := min(montecarlo.Workers(), rPanels)
	var wg sync.WaitGroup
	for g := 1; g < width; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sweep(g, width)
		}()
	}
	sweep(0, width)
	wg.Wait()

	for _, v := range slots {
		conc += v[0]
		ub += v[1]
	}
	area := math.Pi * rmax * rmax
	return conc / area, ub / area
}

// CurvePoint is one D-sample of the Figure 4/5/9 throughput curves.
type CurvePoint struct {
	D     float64
	Mux   float64
	Conc  float64
	CS    float64
	Max   float64
	UBMax float64
}

// Curves computes the average-throughput-versus-D curves of Figures 4,
// 5 and 9 for one R_max: multiplexing, concurrency, carrier sense (for
// the given threshold) and optimal, across the given D grid, each
// estimated with n Monte Carlo samples. Values are normalized by
// dividing by norm if norm > 0 (the paper normalizes to the
// R_max = 20, D = ∞ throughput, i.e. ⟨C_single⟩(20)).
func (m *Model) Curves(seed uint64, n int, rmax, dThresh float64, dGrid []float64, norm float64) []CurvePoint {
	out := make([]CurvePoint, len(dGrid))
	scale := 1.0
	if norm > 0 {
		scale = 1 / norm
	}
	for i, d := range dGrid {
		a := m.EstimateAverages(seed+uint64(i)*7919, n, rmax, d, dThresh)
		out[i] = CurvePoint{
			D:     d,
			Mux:   a.Mux.Mean * scale,
			Conc:  a.Conc.Mean * scale,
			CS:    a.CS.Mean * scale,
			Max:   a.Max.Mean * scale,
			UBMax: a.UBMax.Mean * scale,
		}
	}
	return out
}

// NormalizationConstant returns the paper's Figure 4 normalizer:
// ⟨C_single⟩ at R_max = 20 (the D → ∞ throughput of a R_max = 20
// network), estimated with n samples (or by quadrature when σ = 0).
func (m *Model) NormalizationConstant(seed uint64, n int) float64 {
	if m.params.SigmaDB == 0 {
		return m.AvgSingleQuad(20)
	}
	est := m.estimatePoint(KernelSingle, 20, 1, 0, seed, n)
	return est[0].Mean
}

// ConcurrencySlope estimates d⟨C_conc⟩/dD at the given D by a central
// difference of the quadrature curve (σ = 0 only). Footnote 12 bounds
// this slope by 1.37/R_max (in R_max = 20 normalized capacity units)
// for α = 3 and all D > R_max.
func (m *Model) ConcurrencySlope(rmax, d float64) float64 {
	h := math.Max(d*0.01, 0.05)
	return numeric.Derivative(func(x float64) float64 {
		return m.AvgConcQuad(rmax, x)
	}, d, h)
}
