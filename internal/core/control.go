package core

// Control-twin registration: every shadowed two-pair kernel whose
// σ = 0 means are computable by deterministic quadrature gets a
// montecarlo control twin — the same integrand evaluated on the
// σ = 0 model. The twin consumes exactly the prefix of the real
// kernel's per-sample uniforms (the two disc placements; σ = 0 draws
// no shadowing factors, matching rng.LognormalDB), so replaying a
// recorded sample into the twin evaluates the identical receiver
// configuration with the shadowing integrated out. That makes the
// twin the conditional-expectation-style control the cv sampler
// needs: it explains all placement variance (and, when the real
// environment is itself σ = 0, the whole integrand).
//
// Components whose σ = 0 mean has no accurate quadrature — the
// two-receiver max and the discontinuous starvation indicator — are
// marked NaN so the pilot leaves them unadjusted (β = 0); a quadrature
// value with a non-negligible error there would bias the estimate,
// not just inflate its variance.

import (
	"encoding/json"
	"math"

	"carriersense/internal/geometry"
	"carriersense/internal/montecarlo"
	"carriersense/internal/numeric"
)

// avgCSQuad returns the σ = 0 carrier-sense mean and the (σ = 0
// deterministic) deferral decision: with L″ pinned at 1 the threshold
// comparison is a per-point constant, so CS throughput is exactly the
// multiplexing or the concurrency disc average.
func (m *Model) avgCSQuad(rmax, d, dThresh float64) (cs float64, defers bool) {
	defers = 1 > m.ThresholdPower(dThresh)/m.pathGain(d)
	if defers {
		return m.AvgMuxQuad(rmax), true
	}
	return m.AvgConcQuad(rmax, d), false
}

// avgUBMaxQuad computes ⟨max(C_conc, C_mux)⟩ over receiver 1's disc
// for σ = 0 — the per-receiver upper bound component, which depends
// on receiver 1's placement only.
func (m *Model) avgUBMaxQuad(rmax, d float64) float64 {
	return numeric.DiscAverage(func(r, theta float64) float64 {
		p := geometry.Polar(r, theta)
		c := Config{D: d, X1: p.X, Y1: p.Y, LSig1: 1, LInt1: 1}
		return math.Max(m.CConcurrent(c, 1), m.CSingle(c, 1)/2)
	}, rmax, 48, 24)
}

func init() {
	montecarlo.RegisterControlTwin(KernelAverages, montecarlo.ControlTwin{
		Eval: pointKernelFactory(KernelAverages, true),
		Means: func(raw json.RawMessage) ([]float64, error) {
			m, p, err := pointModel(raw, true)
			if err != nil {
				return nil, err
			}
			means := make([]float64, nAverages)
			single := m.AvgSingleQuad(p.Rmax)
			means[idxSingle] = single
			means[idxMux] = single / 2
			means[idxConc] = m.AvgConcQuad(p.Rmax, p.D)
			cs, defers := m.avgCSQuad(p.Rmax, p.D, p.DThresh)
			means[idxCS] = cs
			means[idxMax] = math.NaN() // depends on both placements: no 2-D quadrature
			means[idxUBMax] = m.avgUBMaxQuad(p.Rmax, p.D)
			means[idxStarved] = math.NaN() // discontinuous indicator: quadrature would bias
			if defers {
				means[idxDeferred] = 1
			} else {
				means[idxDeferred] = 0
			}
			return means, nil
		},
	})
	montecarlo.RegisterControlTwin(KernelSingle, montecarlo.ControlTwin{
		Eval: pointKernelFactory(KernelSingle, true),
		Means: func(raw json.RawMessage) ([]float64, error) {
			m, p, err := pointModel(raw, true)
			if err != nil {
				return nil, err
			}
			return []float64{m.AvgSingleQuad(p.Rmax)}, nil
		},
	})
	montecarlo.RegisterControlTwin(KernelPolicyDiff, montecarlo.ControlTwin{
		Eval: pointKernelFactory(KernelPolicyDiff, true),
		Means: func(raw json.RawMessage) ([]float64, error) {
			m, p, err := pointModel(raw, true)
			if err != nil {
				return nil, err
			}
			return []float64{m.AvgConcQuad(p.Rmax, p.D), m.AvgSingleQuad(p.Rmax) / 2}, nil
		},
	})
}
