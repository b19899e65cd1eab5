package experiments

import (
	"context"
	"fmt"
	"io"

	"carriersense/internal/core"
	"carriersense/internal/numeric"
	"carriersense/internal/plot"
)

// CurvesParams configures the Figure 4/5/9 throughput-versus-D curves.
type CurvesParams struct {
	Alpha   float64
	SigmaDB float64 // 0 for Figure 4/5/6, 8 for Figure 9
	Rmax    float64
	DThresh float64 // carrier sense threshold for the CS curve
	DGrid   []float64
	Seed    uint64
}

// DefaultCurves returns Figure 4's setup for one R_max panel.
func DefaultCurves(rmax float64) CurvesParams {
	return CurvesParams{
		Alpha:   3,
		SigmaDB: 0,
		Rmax:    rmax,
		DThresh: 55,
		DGrid:   numeric.LinSpace(2, 200, 34),
		Seed:    1,
	}
}

// CurvesResult carries the curve data plus normalization.
type CurvesResult struct {
	Params CurvesParams
	Points []core.CurvePoint
	Norm   float64 // paper's normalizer ⟨C_single⟩(R_max=20)
}

// Curves computes one panel of Figure 4 (σ = 0) or Figure 9 (σ = 8 dB):
// multiplexing, concurrency, carrier sense and optimal average
// throughput versus inter-sender distance D, normalized as a fraction
// of the R_max = 20, D = ∞ throughput.
func Curves(ctx context.Context, p CurvesParams, scale Scale) CurvesResult {
	m := core.New(core.Params{Alpha: p.Alpha, SigmaDB: p.SigmaDB, NoiseDB: core.DefaultNoiseDB})
	n := scale.mcSamples()
	norm := m.NormalizationConstant(ctx, p.Seed, n)
	// The paper normalizes to the no-competition throughput, which is
	// 2 × multiplexing; a single pair at D → ∞ under concurrency gets
	// the full C_single.
	return CurvesResult{
		Params: p,
		Points: m.Curves(ctx, p.Seed, n, p.Rmax, p.DThresh, p.DGrid, norm),
		Norm:   norm,
	}
}

// Chart renders the curves as a plot.Chart.
func (r CurvesResult) Chart() plot.Chart {
	n := len(r.Points)
	xs := make([]float64, n)
	mux := make([]float64, n)
	conc := make([]float64, n)
	cs := make([]float64, n)
	max := make([]float64, n)
	for i, pt := range r.Points {
		xs[i] = pt.D
		mux[i] = pt.Mux
		conc[i] = pt.Conc
		cs[i] = pt.CS
		max[i] = pt.Max
	}
	return plot.Chart{
		Title: fmt.Sprintf("<C> vs D, Rmax=%.0f, alpha=%.1f, sigma=%.0fdB (normalized to Rmax=20, D=inf)",
			r.Params.Rmax, r.Params.Alpha, r.Params.SigmaDB),
		XLabel: "inter-sender distance D",
		YLabel: "normalized throughput",
		Series: []plot.Series{
			{Name: "multiplexing", X: xs, Y: mux, Marker: 'm'},
			{Name: "concurrency", X: xs, Y: conc, Marker: 'c'},
			{Name: "optimal", X: xs, Y: max, Marker: 'o'},
			{Name: "carrier sense", X: xs, Y: cs, Marker: 's'},
		},
		VLines: []float64{r.Params.DThresh},
	}
}

// CrossoverD returns the D at which the concurrency curve first
// exceeds multiplexing — the visible crossover whose location §3.3.3
// proves is the optimal threshold.
func (r CurvesResult) CrossoverD() float64 {
	for _, pt := range r.Points {
		if pt.Conc >= pt.Mux {
			return pt.D
		}
	}
	return r.Points[len(r.Points)-1].D
}

// InefficiencyResult is the Figure 6 decomposition.
type InefficiencyResult struct {
	Params CurvesParams
	Ineff  core.Inefficiency
}

// InefficiencyDecomposition computes Figure 6's shaded areas for one
// R_max and threshold: hidden-terminal inefficiency (right of the
// threshold), exposed-terminal inefficiency (left), and the
// "triangle" attributable purely to threshold misplacement.
func InefficiencyDecomposition(ctx context.Context, p CurvesParams, scale Scale) InefficiencyResult {
	m := core.New(core.Params{Alpha: p.Alpha, SigmaDB: p.SigmaDB, NoiseDB: core.DefaultNoiseDB})
	n := scale.mcSamples()
	return InefficiencyResult{
		Params: p,
		Ineff:  m.EstimateInefficiency(ctx, p.Seed, n, p.Rmax, p.DThresh, p.DGrid),
	}
}

// Render writes the decomposition summary.
func (r InefficiencyResult) Render(w io.Writer) {
	fmt.Fprintf(w, "F6: inefficiency decomposition, Rmax=%.0f, Dthresh=%.0f, sigma=%.0fdB\n",
		r.Params.Rmax, r.Params.DThresh, r.Params.SigmaDB)
	fmt.Fprintf(w, "  hidden-terminal inefficiency (D > threshold): %.1f%% of optimal area\n",
		100*r.Ineff.HiddenTotal)
	fmt.Fprintf(w, "  exposed-terminal inefficiency (D < threshold): %.1f%% of optimal area\n",
		100*r.Ineff.ExposedTotal)
	fmt.Fprintf(w, "  threshold-misplacement triangle: %.1f%% of optimal area\n",
		100*r.Ineff.TriangleTotal)
}

// ThresholdSensitivity sweeps the carrier sense threshold around its
// optimum and reports total efficiency across the D grid — the
// quantitative form of §3.3.4's robustness claim (an ablation bench
// target).
type ThresholdSensitivityPoint struct {
	DThresh    float64
	Efficiency float64 // mean over the D grid of CS/optimal
}

// ThresholdSensitivity evaluates CS efficiency as a function of
// threshold for one R_max.
func ThresholdSensitivity(ctx context.Context, p CurvesParams, thresholds []float64, scale Scale) []ThresholdSensitivityPoint {
	m := core.New(core.Params{Alpha: p.Alpha, SigmaDB: p.SigmaDB, NoiseDB: core.DefaultNoiseDB})
	n := scale.mcSamples() / 4
	out := make([]ThresholdSensitivityPoint, 0, len(thresholds))
	for _, th := range thresholds {
		var cs, max float64
		for j, d := range p.DGrid {
			a := m.EstimateAverages(ctx, p.Seed+uint64(j)*7919, n, p.Rmax, d, th)
			cs += a.CS.Mean
			max += a.Max.Mean
		}
		out = append(out, ThresholdSensitivityPoint{DThresh: th, Efficiency: cs / max})
	}
	return out
}
