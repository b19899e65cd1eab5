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

	"carriersense/internal/montecarlo"
)

// twinMeans are the σ = 0 quadrature means of every kernel with a
// control twin; init registers one twin per entry.
var twinMeans = map[string]func(raw json.RawMessage) ([]float64, error){
	KernelAverages: func(raw json.RawMessage) ([]float64, error) {
		m, p, err := pointModel(raw, true)
		if err != nil {
			return nil, err
		}
		// With L″ pinned at 1 the deferral decision is a per-point
		// constant, so the σ = 0 CS mean is exactly the mux or the
		// conc disc average.
		defers := 1 > m.ThresholdPower(p.DThresh)/m.pathGain(p.D)
		single := m.AvgSingleQuad(p.Rmax)
		conc := m.concDiscQuad(p.Rmax, p.D, 2)
		means := make([]float64, nAverages)
		means[idxSingle] = single
		means[idxMux] = single / 2
		means[idxConc] = conc[0]
		means[idxCS] = conc[0]
		means[idxMax] = math.NaN() // depends on both placements: no 2-D quadrature
		means[idxUBMax] = conc[1]
		means[idxStarved] = math.NaN() // discontinuous indicator: quadrature would bias
		if defers {
			means[idxCS] = means[idxMux]
			means[idxDeferred] = 1
		}
		return means, nil
	},
	KernelSingle: func(raw json.RawMessage) ([]float64, error) {
		m, p, err := pointModel(raw, true)
		if err != nil {
			return nil, err
		}
		return []float64{m.AvgSingleQuad(p.Rmax)}, nil
	},
	KernelPolicyDiff: func(raw json.RawMessage) ([]float64, error) {
		m, p, err := pointModel(raw, true)
		if err != nil {
			return nil, err
		}
		return []float64{m.AvgConcQuad(p.Rmax, p.D), m.AvgSingleQuad(p.Rmax) / 2}, nil
	},
}

func init() {
	for name, means := range twinMeans {
		montecarlo.RegisterControlTwin(name, montecarlo.ControlTwin{
			Eval:  pointKernelFactory(name, true),
			Means: means,
		})
	}
}
