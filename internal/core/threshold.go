package core

import (
	"context"
	"math"

	"carriersense/internal/montecarlo"
	"carriersense/internal/numeric"
	"carriersense/internal/rng"
)

// Regime classifies a network by the position of its optimal threshold
// relative to the network boundary (§3.3.3): R_thresh < R_max marks
// genuine long range; R_thresh > 2·R_max marks true short range;
// between the two lies the intermediate "sweet spot" most data
// networking hardware targets (§3.3.4).
type Regime int

const (
	// RegimeShortRange: optimal threshold well outside the network
	// (D_opt > 2·R_max). Interference is global; carrier sense is
	// near-perfect and starvation-free.
	RegimeShortRange Regime = iota
	// RegimeIntermediate: the 10-25 dB SNR sweet spot; good
	// performance and robust thresholds.
	RegimeIntermediate
	// RegimeLongRange: optimal threshold inside the network
	// (D_opt < R_max). Noise-dominated; interference localized;
	// average throughput still good but fairness suffers.
	RegimeLongRange
)

// String returns the regime name.
func (r Regime) String() string {
	switch r {
	case RegimeShortRange:
		return "short-range"
	case RegimeIntermediate:
		return "intermediate"
	case RegimeLongRange:
		return "long-range"
	default:
		return "unknown"
	}
}

// OptimalThresholdQuad solves ⟨C_conc⟩(D) = ⟨C_mux⟩ for D in the σ = 0
// model by quadrature and Brent's method — §3.3.3 proves this crossing
// point is the threshold that minimizes average inefficiency for all D
// simultaneously. The search bracket grows geometrically until the
// crossing is enclosed.
func (m *Model) OptimalThresholdQuad(rmax float64) float64 {
	mux := m.AvgMuxQuad(rmax)
	f := func(d float64) float64 { return m.AvgConcQuad(rmax, d) - mux }
	lo, hi := 1e-3, math.Max(4*rmax, 50.0)
	for f(hi) < 0 {
		hi *= 2
		if hi > 1e5 {
			// Concurrency never catches multiplexing within any
			// plausible range; the model is in the CDMA-like "extreme
			// long range" regime (footnote 11). Report the cap.
			return hi
		}
	}
	d, err := numeric.Brent(f, lo, hi, 1e-4*hi)
	if err != nil {
		// Fall back to bisection on the same bracket.
		d, _ = numeric.Bisect(f, lo, hi, 1e-4*hi)
	}
	return d
}

// OptimalThresholdMC solves the ⟨C_conc⟩ = ⟨C_mux⟩ crossing for the
// shadowed model by Monte Carlo estimation and bisection. n is the
// per-evaluation sample count; both curves are estimated with common
// random numbers so their difference is far less noisy than either
// alone. For σ > 0 no unique optimum exists (footnote 16); the paper
// keeps the crossing-point definition and so do we.
//
// Every step estimates core/policy-diff on the same seed, so every
// step draws the same receiver positions and shadowing factors; only
// D, which enters after the draw, moves. The process's draw memo
// (internal/montecarlo, memo.go) keeps each shard's draws: the local
// pool, or a fleet worker, draws a shard at the first step that needs
// it, and later steps it serves only evaluate its records. A worker of
// a multi-process fleet hits only for shards it served at an earlier
// step. A hit computes what a redraw would, operation for operation,
// so every step's accumulators, the crossing and every request, count
// and cache key are as without the memo.
func (m *Model) OptimalThresholdMC(ctx context.Context, seed uint64, n int, rmax float64) float64 {
	env := envSpecOf(m.params)
	diff := func(d float64) float64 {
		p := pointParams{Env: env, Rmax: rmax, D: d}
		est := montecarlo.KernelMeanVec(ctx, KernelPolicyDiff, p, seed, n, policyDiffDim)
		return est[0].Mean - est[1].Mean
	}
	lo, hi := 1e-3, math.Max(4*rmax, 50.0)
	fhi := diff(hi)
	for fhi < 0 {
		hi *= 2
		if hi > 1e5 {
			return hi
		}
		fhi = diff(hi)
	}
	// Bisect evaluates both ends of the bracket; hi's value is known,
	// and re-estimating it would spend the same samples on the same
	// result.
	f := func(d float64) float64 {
		if d == hi {
			return fhi
		}
		return diff(d)
	}
	d, err := numeric.Bisect(f, lo, hi, math.Max(1e-3*hi, 0.05))
	if err != nil {
		return hi
	}
	return d
}

// OptimalThreshold picks the appropriate solver for the model's σ.
func (m *Model) OptimalThreshold(ctx context.Context, seed uint64, n int, rmax float64) float64 {
	if m.params.SigmaDB == 0 {
		return m.OptimalThresholdQuad(rmax)
	}
	return m.OptimalThresholdMC(ctx, seed, n, rmax)
}

// ShortRangeThresholdAsymptote returns footnote 13's closed-form
// short-range limit of the optimal threshold distance:
//
//	D_thresh ≈ e^(-1/4) · R_max^(1/2) · N^(-1/(2α))
//
// in actual distance units (not α = 3 equivalents), derived by taking
// N → 0 and approximating Δr ≈ D_thresh.
func (m *Model) ShortRangeThresholdAsymptote(rmax float64) float64 {
	return math.Exp(-0.25) * math.Sqrt(rmax) *
		math.Pow(m.noise, -1/(2*m.params.Alpha))
}

// Classify returns the regime of a network of radius rmax given its
// optimal threshold distance dOpt, per the §3.3.3 criteria.
func Classify(rmax, dOpt float64) Regime {
	switch {
	case dOpt > 2*rmax:
		return RegimeShortRange
	case dOpt < rmax:
		return RegimeLongRange
	default:
		return RegimeIntermediate
	}
}

// EdgeSNRdB returns the SNR in dB at the network edge (r = R_max)
// ignoring shadowing — the quantity the paper uses to express regime
// boundaries ("equivalent to 12 dB < SNR < 27 dB at the edge of the
// network" for α ≈ 3).
func (m *Model) EdgeSNRdB(rmax float64) float64 {
	return 10 * math.Log10(m.pathGain(rmax)/m.noise)
}

// ThresholdPoint is one sample of Figure 7: the optimal threshold for
// a network radius, expressed both natively and as the equivalent
// distance at α = 3.
type ThresholdPoint struct {
	Rmax       float64
	DOpt       float64 // native optimal threshold distance
	DOptAlpha3 float64 // equivalent distance at α = 3 (Figure 7 axis)
	Regime     Regime
	EdgeSNRdB  float64
	Asymptote  float64 // footnote 13 short-range closed form
}

// ThresholdCurve computes Figure 7's optimal-threshold-versus-R_max
// curve for the model's α (σ handled per the model), over the given
// R_max grid. n is the MC sample count per curve evaluation (ignored
// when σ = 0).
func (m *Model) ThresholdCurve(ctx context.Context, seed uint64, n int, rmaxGrid []float64) []ThresholdPoint {
	out := make([]ThresholdPoint, len(rmaxGrid))
	for i, rmax := range rmaxGrid {
		dOpt := m.OptimalThreshold(ctx, seed+uint64(i)*104729, n, rmax)
		pThresh := m.ThresholdPower(dOpt)
		out[i] = ThresholdPoint{
			Rmax:       rmax,
			DOpt:       dOpt,
			DOptAlpha3: EquivalentDistanceAtAlpha(pThresh, 3),
			Regime:     Classify(rmax, dOpt),
			EdgeSNRdB:  m.EdgeSNRdB(rmax),
			Asymptote:  m.ShortRangeThresholdAsymptote(rmax),
		}
	}
	return out
}

// RecommendFactoryThreshold implements §3.3.3's "split the difference"
// strategy: given the operating span of the hardware [rmaxLo, rmaxHi]
// (e.g. 20 to 120 for 802.11g's bitrate flexibility), return the
// midpoint of the optimal thresholds at the two extremes. For the
// paper's defaults this lands near D_thresh ≈ 55 (P_thresh ≈ 13 dB
// above... the -65 dB reference, i.e. sensed power -52 dB).
func (m *Model) RecommendFactoryThreshold(ctx context.Context, seed uint64, n int, rmaxLo, rmaxHi float64) float64 {
	dLo := m.OptimalThreshold(ctx, seed, n, rmaxLo)
	dHi := m.OptimalThreshold(ctx, seed+1, n, rmaxHi)
	return (dLo + dHi) / 2
}

// SpuriousConcurrencyProbability returns the probability that
// shadowing on the sensing channel makes an interferer at distance d
// appear beyond the threshold dThresh, triggering concurrency even
// though d < dThresh (§3.4's worked example). Zero σ gives a hard 0/1.
func (m *Model) SpuriousConcurrencyProbability(d, dThresh float64) float64 {
	// Sensed power d^-α·L″ < dThresh^-α  ⇔  L″_dB < 10α·log10(d/dThresh).
	x := 10 * m.params.Alpha * math.Log10(d/dThresh)
	if m.params.SigmaDB == 0 {
		if x < 0 {
			return 0
		}
		return 1
	}
	return rng.NormalCDF(x / m.params.SigmaDB)
}

// SNREstimateUncertaintyDB returns §3.4's pessimistic bound on a
// sender's ability to estimate its receiver's SNR under shadowing:
// the three independent lognormal effects (signal, interference,
// sensing) summed in quadrature, σ·√3.
func (m *Model) SNREstimateUncertaintyDB() float64 {
	return m.params.SigmaDB * math.Sqrt(3)
}
