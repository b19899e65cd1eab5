package experiments

import (
	"context"
	"fmt"
	"io"
	"math"

	"carriersense/internal/core"
	"carriersense/internal/numeric"
	"carriersense/internal/plot"
	"carriersense/internal/propagation"
)

// Figure7Params configures the optimal-threshold-versus-R_max curves.
type Figure7Params struct {
	Alphas   []float64 // paper plots several α (2-4) on one axis
	SigmaDB  float64   // paper: 8 dB ("shadowing has a significant qualitative impact at long range")
	RmaxGrid []float64
	Seed     uint64
}

// DefaultFigure7 matches the paper's Figure 7.
func DefaultFigure7() Figure7Params {
	return Figure7Params{
		Alphas:   []float64{2, 2.5, 3, 3.5, 4},
		SigmaDB:  8,
		RmaxGrid: numeric.LogSpace(5, 200, 16),
		Seed:     1,
	}
}

// Figure7Result holds one threshold curve per α.
type Figure7Result struct {
	Params Figure7Params
	Curves map[float64][]core.ThresholdPoint // keyed by α
}

// Figure7 computes the optimal threshold (expressed as the α = 3
// equivalent distance) versus network radius for each α.
func Figure7(ctx context.Context, p Figure7Params, scale Scale) Figure7Result {
	res := Figure7Result{Params: p, Curves: make(map[float64][]core.ThresholdPoint)}
	n := scale.mcSamples() / 4
	for _, alpha := range p.Alphas {
		m := core.New(core.Params{Alpha: alpha, SigmaDB: p.SigmaDB, NoiseDB: core.DefaultNoiseDB})
		res.Curves[alpha] = m.ThresholdCurve(ctx, p.Seed, n, p.RmaxGrid)
	}
	return res
}

// Chart renders Figure 7: threshold curves per α plus the regime
// boundary lines R_thresh = R_max and R_thresh = 2·R_max.
func (r Figure7Result) Chart() plot.Chart {
	c := plot.Chart{
		Title:  fmt.Sprintf("F7: optimal threshold (alpha=3 equivalent distance) vs Rmax, sigma=%.0fdB", r.Params.SigmaDB),
		XLabel: "network radius Rmax",
		YLabel: "optimal Dthresh (alpha=3 equivalent)",
	}
	markers := []rune{'2', 'h', '3', 't', '4'}
	for i, alpha := range r.Params.Alphas {
		pts := r.Curves[alpha]
		xs := make([]float64, len(pts))
		ys := make([]float64, len(pts))
		for j, pt := range pts {
			xs[j] = pt.Rmax
			ys[j] = pt.DOptAlpha3
		}
		c.Series = append(c.Series, plot.Series{
			Name:   fmt.Sprintf("alpha=%.1f", alpha),
			X:      xs,
			Y:      ys,
			Marker: markers[i%len(markers)],
		})
	}
	// Boundary lines: D = R_max and D = 2·R_max.
	xs := r.Params.RmaxGrid
	eq := make([]float64, len(xs))
	twice := make([]float64, len(xs))
	for i, x := range xs {
		eq[i] = x
		twice[i] = 2 * x
	}
	c.Series = append(c.Series,
		plot.Series{Name: "Rthresh=Rmax (long-range boundary)", X: xs, Y: eq, Marker: '-'},
		plot.Series{Name: "Rthresh=2Rmax (short-range boundary)", X: xs, Y: twice, Marker: '='},
	)
	return c
}

// RegimeTable summarizes the regime classification along the α = 3
// curve, with edge SNR — the paper's "roughly 18 < Rmax < 60,
// equivalent to 12 dB < SNR < 27 dB at the edge" claim.
func (r Figure7Result) RegimeTable(w io.Writer) {
	pts, ok := r.Curves[3]
	if !ok {
		for _, alpha := range r.Params.Alphas {
			pts = r.Curves[alpha]
			break
		}
	}
	tbl := plot.Table{
		Title:   "F7: regime classification (alpha=3 curve)",
		Headers: []string{"Rmax", "Dopt", "edge SNR (dB)", "regime", "short-range asymptote"},
	}
	for _, pt := range pts {
		tbl.AddRow(
			fmt.Sprintf("%.0f", pt.Rmax),
			fmt.Sprintf("%.0f", pt.DOpt),
			fmt.Sprintf("%.1f", pt.EdgeSNRdB),
			pt.Regime.String(),
			fmt.Sprintf("%.0f", pt.Asymptote),
		)
	}
	tbl.Render(w)
}

// Section34Result packages the worked shadowing example (§3.4) and the
// lumped-uncertainty arithmetic around it.
type Section34Result struct {
	Example        core.ShadowingExample
	SNRUncertainty float64 // σ√3 (paper: ≈14 dB at σ=8)
	DistanceFactor float64 // its path loss equivalent (paper: ≈3× at α=3)
}

// Section34 evaluates the §3.4 example: R_max = 20, D_thresh = 40,
// interferer at D = 20 (paper: ≈20% spurious concurrency, ≈4% of
// configurations with sub-0 dB SNR).
func Section34(ctx context.Context, scale Scale) Section34Result {
	m := core.New(core.Params{Alpha: 3, SigmaDB: 8, NoiseDB: core.DefaultNoiseDB})
	n := scale.mcSamples()
	unc := m.SNREstimateUncertaintyDB()
	return Section34Result{
		Example:        m.EstimateShadowingExample(ctx, 2, n, 20, 20, 40),
		SNRUncertainty: unc,
		DistanceFactor: m.LumpedDistanceFactor(unc),
	}
}

// Render writes the §3.4 numbers.
func (r Section34Result) Render(w io.Writer) {
	e := r.Example
	fmt.Fprintf(w, "S34: shadowing worked example (Rmax=%.0f, D=%.0f, Dthresh=%.0f, sigma=8dB)\n",
		e.Rmax, e.D, e.DThresh)
	fmt.Fprintf(w, "  P[spurious concurrency]         = %.1f%% (paper: ~20%%)\n", 100*e.PSpuriousConcurrency)
	fmt.Fprintf(w, "  P[receiver closer to interferer] = %.1f%% (paper: ~20%%)\n", 100*e.PSmothered)
	fmt.Fprintf(w, "  product (closed form)            = %.1f%% (paper: ~4%%)\n", 100*e.PBadSNR)
	fmt.Fprintf(w, "  P[bad SNR] by direct Monte Carlo = %.1f%% +/- %.1f%%\n",
		100*e.PBadSNRMC.Mean, 100*e.PBadSNRMC.StdErr)
	fmt.Fprintf(w, "  SNR-estimate uncertainty sigma*sqrt(3) = %.1f dB (paper: ~14 dB)\n", r.SNRUncertainty)
	fmt.Fprintf(w, "  equivalent distance factor at alpha=3  = %.1fx (paper: ~3x)\n", r.DistanceFactor)
}

// BarrierResult quantifies Figure 8's argument: you cannot hide one
// sender from another with a barrier, because at least one of three
// propagation paths survives — penetration through the obstruction,
// reflection off a far wall, or diffraction around the edge. §3.4 puts
// all three losses at or under ~30 dB, far too little to defeat a
// carrier sense threshold given typical link budgets.
type BarrierResult struct {
	// PenetrationDB is the through-barrier loss (interior wall,
	// COST231: "typically less than 10 dB").
	PenetrationDB float64
	// ReflectionDB is the far-wall reflection loss ("typically less
	// than 10 dB").
	ReflectionDB float64
	// DiffractionDB is the knife-edge loss around the barrier for the
	// paper's geometry (5 m to the barrier at 2.4 GHz: "around 30 dB").
	DiffractionDB float64
	// BestPathDB is the weakest extra loss a sense signal suffers.
	BestPathDB float64
	// SenseMarginDB is the margin left over for a typical WLAN sensing
	// budget: two senders 20 m apart at 15 dBm with a -92 dBm
	// preamble-sense floor.
	SenseMarginDB float64
}

// Barrier evaluates the Figure 8 scenario with the paper's numbers.
func Barrier() BarrierResult {
	const (
		penetration = 8.0 // interior wall, < 10 dB
		reflection  = 9.0 // far-wall bounce, < 10 dB
		lambda      = 0.125
		barrierDist = 5.0 // meters to the barrier from each sender
		barrierRise = 2.0 // meters the barrier pokes above the path
	)
	v := propagation.FresnelV(barrierRise, barrierDist, barrierDist, lambda)
	diff := propagation.KnifeEdgeDiffractionLossDB(v)
	best := math.Min(penetration, math.Min(reflection, diff))
	// Sensing budget: 15 dBm TX, ~40 dB loss at 1 m (2.4 GHz), α = 3
	// over 20 m, versus a -92 dBm preamble-sense floor.
	pathLoss := 40 + 10*3*math.Log10(20)
	rssiClear := 15 - pathLoss
	margin := (rssiClear - best) - (-92)
	return BarrierResult{
		PenetrationDB: penetration,
		ReflectionDB:  reflection,
		DiffractionDB: diff,
		BestPathDB:    best,
		SenseMarginDB: margin,
	}
}

// Render writes the barrier analysis.
func (r BarrierResult) Render(w io.Writer) {
	fmt.Fprintln(w, "F8: can a barrier hide a sender from carrier sense? (section 3.4)")
	fmt.Fprintf(w, "  through-wall penetration loss: %.0f dB (paper: <10 dB)\n", r.PenetrationDB)
	fmt.Fprintf(w, "  far-wall reflection loss:      %.0f dB (paper: <10 dB)\n", r.ReflectionDB)
	fmt.Fprintf(w, "  knife-edge diffraction loss:   %.0f dB (paper: ~30 dB)\n", r.DiffractionDB)
	fmt.Fprintf(w, "  weakest surviving path costs %.0f dB; the sense signal still\n", r.BestPathDB)
	fmt.Fprintf(w, "  clears the preamble floor by %.0f dB at 20 m separation.\n", r.SenseMarginDB)
}
