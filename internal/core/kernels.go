package core

// Kernel registration: every Monte Carlo integrand of the model is a
// named montecarlo kernel whose parameters serialize to JSON, so any
// estimation in this package can be farmed out to worker processes by
// a distributed executor (internal/dist) without the callers — the
// registered scenarios — changing at all. The coordinator and the
// workers run the same binary, so a (kernel name, params) pair
// rebuilds the exact closure on either side. Every estimator that
// reaches an executor takes the run's context first: its plan
// (montecarlo.WithPlan) names the executor and the sampler.

import (
	"context"
	"encoding/json"
	"fmt"

	"carriersense/internal/capacity"
	"carriersense/internal/montecarlo"
)

// Kernel names registered by this package.
const (
	KernelAverages    = "core/averages"     // per-policy throughput vector (EstimateAverages)
	KernelAveragesRow = "core/averages-row" // the same at every D of a row, two thresholds (EstimateAveragesRow)
	KernelSingle      = "core/single"       // no-competition throughput (NormalizationConstant)
	KernelBadSNR      = "core/bad-snr"      // §3.4 spurious-concurrency ∧ bad-SNR indicator
	KernelPolicyDiff  = "core/policy-diff"  // C_conc vs C_mux pair (OptimalThresholdMC)
	KernelMulti       = "core/multi"        // n-pair policy vector (EstimateMulti)
)

// EnvSpec is the serializable form of Params.
type EnvSpec struct {
	Alpha    float64       `json:"alpha"`
	SigmaDB  float64       `json:"sigma_db"`
	NoiseDB  float64       `json:"noise_db"`
	Capacity capacity.Spec `json:"capacity,omitempty"`
}

// envSpecOf captures the environment's serializable identity. Params
// that passed Validate always have one.
func envSpecOf(p Params) EnvSpec {
	cs, _ := capacity.SpecOf(p.Capacity)
	return EnvSpec{Alpha: p.Alpha, SigmaDB: p.SigmaDB, NoiseDB: p.NoiseDB, Capacity: cs}
}

// build reconstructs the Model an EnvSpec was captured from.
func (s EnvSpec) build() (*Model, error) {
	capModel, err := s.Capacity.Build()
	if err != nil {
		return nil, err
	}
	p := Params{Alpha: s.Alpha, SigmaDB: s.SigmaDB, NoiseDB: s.NoiseDB, Capacity: capModel}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return New(p), nil
}

// pointParams parameterize the two-pair kernels: one environment and
// one (R_max, D, D_thresh) evaluation point. Kernels that ignore
// D_thresh leave it zero.
type pointParams struct {
	Env     EnvSpec `json:"env"`
	Rmax    float64 `json:"rmax"`
	D       float64 `json:"d"`
	DThresh float64 `json:"dthresh,omitempty"`
}

// rowParams parameterize core/averages-row: one environment, a tables
// row's R_max and D grid, and its two threshold distances. The
// kernel's component count follows from len(Ds) (rowDim).
type rowParams struct {
	Env      EnvSpec   `json:"env"`
	Rmax     float64   `json:"rmax"`
	Ds       []float64 `json:"ds"`
	DThresh  float64   `json:"dthresh"`
	DThresh2 float64   `json:"dthresh2"`
}

// multiParamsWire parameterize the n-pair kernel.
type multiParamsWire struct {
	Env        EnvSpec `json:"env"`
	NPairs     int     `json:"npairs"`
	AreaRadius float64 `json:"area_radius"`
	Rmax       float64 `json:"rmax"`
	DThresh    float64 `json:"dthresh"`
	Rounds     int     `json:"rounds"`
}

// pointKernel is one two-pair batch kernel: a projection of the fused
// pointEval draw with its component count.
type pointKernel struct {
	dim   int
	batch func(pe *pointEval) montecarlo.BatchEvalFunc
}

// pointKernels are the two-pair batch kernels by name. init registers
// each one, and estimatePoint reads its component count here. The
// fourth two-pair kernel, policy-diff, is a split kernel that init
// registers in its parts; averages-row, which evaluates a row of
// two-pair points, registers as a sized kernel.
var pointKernels = map[string]pointKernel{
	KernelAverages: {nAverages, func(pe *pointEval) montecarlo.BatchEvalFunc { return pe.averagesBatch }},
	KernelSingle:   {1, func(pe *pointEval) montecarlo.BatchEvalFunc { return pe.singleBatch }},
	KernelBadSNR:   {1, func(pe *pointEval) montecarlo.BatchEvalFunc { return pe.badSNRBatch }},
}

// pointEvalOf rebuilds a two-pair kernel's pointEval from its
// pointParams.
func pointEvalOf(raw json.RawMessage) (*pointEval, error) {
	var p pointParams
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, err
	}
	m, err := p.Env.build()
	if err != nil {
		return nil, err
	}
	return m.newPointEval(p.Rmax, p.D, p.DThresh), nil
}

// averagesRowOf rebuilds a core/averages-row kernel from its rowParams.
func averagesRowOf(raw json.RawMessage) (averagesRow, error) {
	var p rowParams
	if err := json.Unmarshal(raw, &p); err != nil {
		return nil, err
	}
	if len(p.Ds) == 0 {
		return nil, fmt.Errorf("core: averages-row kernel needs at least one D")
	}
	m, err := p.Env.build()
	if err != nil {
		return nil, err
	}
	row := make(averagesRow, len(p.Ds))
	for j, d := range p.Ds {
		row[j] = m.newPointEval(p.Rmax, d, p.DThresh).withThreshold2(p.DThresh2)
	}
	return row, nil
}

func init() {
	for name, k := range pointKernels {
		montecarlo.RegisterKernel(name, k.dim, func(raw json.RawMessage) (montecarlo.BatchEvalFunc, error) {
			pe, err := pointEvalOf(raw)
			if err != nil {
				return nil, err
			}
			return k.batch(pe), nil
		})
	}
	montecarlo.RegisterSizedKernel(KernelAveragesRow, func(raw json.RawMessage) (montecarlo.BatchEvalFunc, int, error) {
		row, err := averagesRowOf(raw)
		if err != nil {
			return nil, 0, err
		}
		return row.batch, rowDim(len(row)), nil
	})
	montecarlo.RegisterSplitKernel(KernelPolicyDiff, policyDiffDim, policyDiffRecLen, func(raw json.RawMessage) (montecarlo.SplitKernel, any, error) {
		pe, err := pointEvalOf(raw)
		if err != nil {
			return nil, nil, err
		}
		return (*policyDiff)(pe), pe.drawKey(), nil
	})
	montecarlo.RegisterKernel(KernelMulti, nMultiIdx, func(raw json.RawMessage) (montecarlo.BatchEvalFunc, error) {
		var p multiParamsWire
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, err
		}
		if p.NPairs < 1 {
			return nil, fmt.Errorf("core: multi kernel needs npairs >= 1, got %d", p.NPairs)
		}
		env, err := p.Env.build()
		if err != nil {
			return nil, err
		}
		return NewMulti(MultiParams{
			Env:        env.Params(),
			NPairs:     p.NPairs,
			AreaRadius: p.AreaRadius,
			Rmax:       p.Rmax,
			DThresh:    p.DThresh,
			Rounds:     p.Rounds,
		}).multiBatch(), nil
	})
}

// AveragesRequest builds the serializable core/averages estimation
// request for an environment and one (R_max, D, D_thresh) point — the
// entry point the sampling subsystem's tests and benches use to drive
// the hot-path kernel directly through executors. Like New, it panics
// on invalid parameters.
func AveragesRequest(p Params, rmax, d, dThresh float64, seed uint64, n int) montecarlo.Request {
	m := New(p)
	raw, err := json.Marshal(pointParams{Env: envSpecOf(m.params), Rmax: rmax, D: d, DThresh: dThresh})
	if err != nil {
		panic(err)
	}
	return montecarlo.Request{Kernel: KernelAverages, Params: raw, Seed: seed, Samples: n, Dim: nAverages}
}

// estimatePoint routes a two-pair batch kernel estimation through the
// executor of ctx's plan, under the plan's sampler.
func (m *Model) estimatePoint(ctx context.Context, kernel string, rmax, d, dThresh float64, seed uint64, n int) []montecarlo.Estimate {
	p := pointParams{Env: envSpecOf(m.params), Rmax: rmax, D: d, DThresh: dThresh}
	return montecarlo.KernelMeanVec(ctx, kernel, p, seed, n, pointKernels[kernel].dim)
}
