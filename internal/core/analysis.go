package core

import (
	"context"
	"math"

	"carriersense/internal/geometry"
	"carriersense/internal/montecarlo"
)

// Inefficiency decomposes the carrier-sense-versus-optimal gap along
// the D axis, the quantities shaded in Figure 6. For a threshold
// D_thresh, configurations with D > D_thresh that would have done
// better multiplexed contribute "hidden terminal inefficiency"; those
// with D < D_thresh that would have done better concurrent contribute
// "exposed terminal inefficiency". The Triangle fields isolate the
// share attributable purely to threshold misplacement: the area
// between the CS curve and Max[⟨C_mux⟩, ⟨C_conc⟩], which §3.3.3 shows
// vanishes when the threshold sits exactly at the curves' crossing.
type Inefficiency struct {
	Rmax, DThresh float64
	DGrid         []float64
	// Per-D gaps (same units as the curves, averaged over receivers).
	HiddenGap  []float64 // max(0, ⟨C_max⟩-⟨C_cs⟩) on the concurrency side
	ExposedGap []float64 // max(0, ⟨C_max⟩-⟨C_cs⟩) on the multiplexing side
	// Integrated totals over the D grid (trapezoid rule), normalized
	// by the integral of ⟨C_max⟩ so they read as fractions of optimal.
	HiddenTotal   float64
	ExposedTotal  float64
	TriangleTotal float64 // inefficiency due to threshold misplacement only
}

// EstimateInefficiency computes the Figure 6 decomposition for one
// R_max and threshold across the given D grid with n Monte Carlo
// samples per point.
func (m *Model) EstimateInefficiency(ctx context.Context, seed uint64, n int, rmax, dThresh float64, dGrid []float64) Inefficiency {
	ineff := Inefficiency{
		Rmax: rmax, DThresh: dThresh, DGrid: dGrid,
		HiddenGap:  make([]float64, len(dGrid)),
		ExposedGap: make([]float64, len(dGrid)),
	}
	maxCurve := make([]float64, len(dGrid))
	triangle := make([]float64, len(dGrid))
	for i, d := range dGrid {
		a := m.EstimateAverages(ctx, seed+uint64(i)*7919, n, rmax, d, dThresh)
		gap := math.Max(0, a.Max.Mean-a.CS.Mean)
		if d > dThresh {
			ineff.HiddenGap[i] = gap
		} else {
			ineff.ExposedGap[i] = gap
		}
		maxCurve[i] = a.Max.Mean
		// Triangle: CS below the better of the two pure policies.
		best := math.Max(a.Mux.Mean, a.Conc.Mean)
		triangle[i] = math.Max(0, best-a.CS.Mean)
	}
	trap := func(y []float64) float64 {
		total := 0.0
		for i := 1; i < len(dGrid); i++ {
			total += (y[i] + y[i-1]) / 2 * (dGrid[i] - dGrid[i-1])
		}
		return total
	}
	maxArea := trap(maxCurve)
	if maxArea > 0 {
		ineff.HiddenTotal = trap(ineff.HiddenGap) / maxArea
		ineff.ExposedTotal = trap(ineff.ExposedGap) / maxArea
		ineff.TriangleTotal = trap(triangle) / maxArea
	}
	return ineff
}

// ShadowingExample packages the §3.4 worked example: a short range
// network (R_max = 20, D_thresh = 40) with an interferer at D = 20.
type ShadowingExample struct {
	Rmax, D, DThresh float64
	// PSpuriousConcurrency is the chance the interferer appears beyond
	// the threshold to the sender (paper: "about a 20% chance").
	PSpuriousConcurrency float64
	// PSmothered is the fraction of receiver positions closer to the
	// interferer than to the sender (paper: "approximately the
	// fraction of the R_max disc's area closer to D = 20").
	PSmothered float64
	// PBadSNR is their product: configurations left with very poor SNR
	// (paper: "around 4% of configurations").
	PBadSNR float64
	// PBadSNRMC is the direct Monte Carlo estimate of
	// P[spurious concurrency ∧ receiver SNR < 0 dB], the quantity the
	// closed-form product approximates.
	PBadSNRMC montecarlo.Estimate
}

// EstimateShadowingExample evaluates the §3.4 example for this model.
func (m *Model) EstimateShadowingExample(ctx context.Context, seed uint64, n int, rmax, d, dThresh float64) ShadowingExample {
	ex := ShadowingExample{Rmax: rmax, D: d, DThresh: dThresh}
	ex.PSpuriousConcurrency = m.SpuriousConcurrencyProbability(d, dThresh)
	ex.PSmothered = geometry.FractionCloserTo(geometry.Point{X: -d, Y: 0}, rmax)
	ex.PBadSNR = ex.PSpuriousConcurrency * ex.PSmothered
	ex.PBadSNRMC = m.estimatePoint(ctx, KernelBadSNR, rmax, d, dThresh, seed, n)[0]
	return ex
}

// LumpedDistanceFactor converts a dB uncertainty into the equivalent
// multiplicative distance factor under the model's path loss: §3.4
// re-expresses 14 dB of SNR-estimate uncertainty as "a distance factor
// of about 3x" at α = 3.
func (m *Model) LumpedDistanceFactor(uncertaintyDB float64) float64 {
	return math.Pow(10, uncertaintyDB/(10*m.params.Alpha))
}
