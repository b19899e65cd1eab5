// Package core implements the paper's theoretical model of carrier
// sense (§3): two competing sender-receiver pairs under power-law path
// loss and lognormal shadowing, with adaptive-bitrate capacity modeled
// by Shannon's formula, compared across four MAC policies —
// concurrency, time-division multiplexing, threshold carrier sense,
// and a genie-optimal binary choice subject to a weak fairness
// constraint.
//
// Geometry (Figure 1): sender S1 sits at the origin; its receiver R1
// is uniform over the disc of radius R_max around it. The interfering
// sender S2 sits at (D, π), i.e. Cartesian (-D, 0); its receiver R2 is
// uniform over the R_max disc around S2. Distances are the paper's
// dimensionless "65 dB units" (§3.2.2): the noise floor N = N0/P0
// defaults to -65 dB so that r = 20 yields ≈26 dB SNR.
package core

import (
	"context"
	"fmt"
	"math"

	"carriersense/internal/capacity"
	"carriersense/internal/geometry"
	"carriersense/internal/rng"
)

// DefaultNoiseDB is the paper's default noise floor N = N0/P0 in dB
// (footnote 5: convenient for 802.11-like hardware with ~15 dBm
// transmit power and a ~-95 dBm noise floor).
const DefaultNoiseDB = -65

// Params are the environment parameters of the model: the propagation
// exponent and shadowing spread of §2, the normalized noise floor, and
// the capacity model (Shannon unless an ablation swaps it).
type Params struct {
	// Alpha is the path loss exponent (typically 2-4).
	Alpha float64
	// SigmaDB is the lognormal shadowing standard deviation in dB
	// (typically 4-12); zero gives the simplified model of §3.3.
	SigmaDB float64
	// NoiseDB is N = N0/P0 in dB. The paper fixes -65 dB; changing it
	// rescales all distances (§3.2.2).
	NoiseDB float64
	// Capacity maps linear SINR to throughput. Nil means Shannon.
	Capacity capacity.Model
}

// DefaultParams returns the paper's default environment: α = 3,
// σ = 8 dB, N = -65 dB, Shannon capacity.
func DefaultParams() Params {
	return Params{Alpha: 3, SigmaDB: 8, NoiseDB: DefaultNoiseDB}
}

// NoShadowParams returns the simplified (σ = 0) environment of §3.3.
func NoShadowParams() Params {
	p := DefaultParams()
	p.SigmaDB = 0
	return p
}

// Validate reports whether the parameters are usable.
func (p Params) Validate() error {
	if p.Alpha <= 0 {
		return fmt.Errorf("core: path loss exponent must be positive, got %v", p.Alpha)
	}
	if p.SigmaDB < 0 {
		return fmt.Errorf("core: shadowing sigma must be nonnegative, got %v", p.SigmaDB)
	}
	if p.NoiseDB >= 0 {
		return fmt.Errorf("core: noise floor %v dB not below unit-distance power", p.NoiseDB)
	}
	if _, ok := capacity.SpecOf(p.Capacity); !ok {
		// Every estimation is a serializable kernel request; a model
		// outside internal/capacity has no spec to ship.
		return fmt.Errorf("core: capacity model %T has no serializable spec (use a model from internal/capacity)", p.Capacity)
	}
	return nil
}

// Noise returns the linear noise floor N.
func (p Params) Noise() float64 {
	return math.Pow(10, p.NoiseDB/10)
}

func (p Params) capModel() capacity.Model {
	if p.Capacity == nil {
		return capacity.NewShannon()
	}
	return p.Capacity
}

// Model evaluates the paper's capacity formulas for one environment.
// It is stateless and safe for concurrent use.
type Model struct {
	params Params
	noise  float64
	cap    capacity.Model
	// alphaInt is Alpha when it is a small positive integer (the
	// default α = 3 case), letting pathGain use multiplications instead
	// of math.Pow on the Monte Carlo hot path; 0 otherwise.
	alphaInt int
	// shanEff > 0 devirtualizes the (default) Shannon capacity model:
	// thr inlines eff·Log1p instead of an interface dispatch.
	shanEff float64
	// ctx is the context estimations pass to the executor (see
	// WithContext); nil until bound.
	ctx context.Context
}

// New constructs a Model. It panics on invalid parameters, which are
// programmer errors (all entry points construct Params from literals).
func New(p Params) *Model {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	m := &Model{params: p, noise: p.Noise(), cap: p.capModel()}
	if a := int(p.Alpha); p.Alpha == float64(a) && a >= 1 && a <= 8 {
		m.alphaInt = a
	}
	if s, ok := m.cap.(capacity.Shannon); ok {
		m.shanEff = s.Efficiency
		if m.shanEff == 0 {
			m.shanEff = 1
		}
	}
	return m
}

// thr maps linear SINR to throughput, inlining the Shannon formula
// when possible; bit-identical to m.cap.Throughput.
func (m *Model) thr(snr float64) float64 {
	if m.shanEff > 0 {
		if snr <= 0 {
			return 0
		}
		return m.shanEff * math.Log1p(snr)
	}
	return m.cap.Throughput(snr)
}

// Params returns the model's parameters.
func (m *Model) Params() Params { return m.params }

// Noise returns the linear noise floor.
func (m *Model) Noise() float64 { return m.noise }

// minDist clamps degenerate geometry (receiver on top of its sender)
// away from the d = 0 singularity of the power law.
const minDist = 1e-9

// pathGain returns the deterministic power-law gain d^-α. Integer α
// (the α = 3 default) is evaluated by multiplication — several times
// cheaper than math.Pow on the Monte Carlo hot path.
func (m *Model) pathGain(d float64) float64 {
	if d < minDist {
		d = minDist
	}
	if m.alphaInt > 0 {
		p := d
		for i := 1; i < m.alphaInt; i++ {
			p *= d
		}
		return 1 / p
	}
	return math.Pow(d, -m.params.Alpha)
}

// pathGainSq returns the power-law gain d^-α given the *squared*
// distance s = d². Working in the squared domain lets the sampling hot
// path skip math.Hypot entirely: one s = x²+y² suffices, and for
// integer α the gain is a handful of multiplications (odd α needs a
// single sqrt).
func (m *Model) pathGainSq(s float64) float64 {
	const minDistSq = minDist * minDist
	if s < minDistSq {
		s = minDistSq
	}
	if a := m.alphaInt; a > 0 {
		p := 1.0
		for i := a; i >= 2; i -= 2 {
			p *= s
		}
		if a&1 != 0 {
			p *= math.Sqrt(s)
		}
		return 1 / p
	}
	return math.Pow(s, -0.5*m.params.Alpha)
}

// ThresholdPower converts a nominal threshold distance to the
// threshold power P_thresh = D_thresh^-α, the median sensed power at
// separation D_thresh. A sender defers when it senses more than
// P_thresh, so a larger P_thresh is a shorter D_thresh and less
// deferral.
func (m *Model) ThresholdPower(dThresh float64) float64 {
	return m.pathGain(dThresh)
}

// ThresholdDistance converts a threshold power back to its nominal
// distance.
func (m *Model) ThresholdDistance(pThresh float64) float64 {
	return math.Pow(pThresh, -1/m.params.Alpha)
}

// EquivalentDistanceAtAlpha re-expresses a threshold power as a
// distance under a reference exponent (Figure 7 uses α = 3).
func EquivalentDistanceAtAlpha(pThresh, alpha float64) float64 {
	return math.Pow(pThresh, -1/alpha)
}

// Config is one fully sampled configuration of the two-pair scenario:
// receiver positions plus every shadowing draw the capacity formulas
// consume. With SigmaDB = 0 all shadowing factors are 1 and a Config
// is purely geometric.
//
// Receiver positions are stored in Cartesian form, relative to each
// receiver's own sender: every consumer needs either the squared
// sender-receiver distance or the squared interferer-receiver distance
// (x±D)² + y², so Cartesian storage makes the sampling hot path free
// of Atan2/Hypot round trips. Use ConfigPolar to construct one from
// the paper's (r, θ) coordinates.
type Config struct {
	D float64 // sender-sender separation

	X1, Y1 float64 // receiver 1, Cartesian around S1 (interferer at (-D, 0))
	X2, Y2 float64 // receiver 2, Cartesian around S2 (interferer at (-D, 0) by symmetry)

	LSig1  float64 // shadowing S1→R1 (serving link 1)
	LInt1  float64 // shadowing S2→R1 (interference into R1)
	LSig2  float64 // shadowing S2→R2 (serving link 2)
	LInt2  float64 // shadowing S1→R2 (interference into R2)
	LSense float64 // shadowing S1↔S2 (the carrier sense channel; one
	// draw shared by both senders — the model assumes
	// equal sensed powers, §3.2.1)
}

// ConfigPolar constructs a shadowing-free configuration from the
// paper's polar receiver coordinates (both receivers at (r_i, θ_i)
// around their own sender).
func ConfigPolar(d, r1, theta1, r2, theta2 float64) Config {
	p1 := geometry.Polar(r1, theta1)
	p2 := geometry.Polar(r2, theta2)
	return Config{
		D: d, X1: p1.X, Y1: p1.Y, X2: p2.X, Y2: p2.Y,
		LSig1: 1, LInt1: 1, LSig2: 1, LInt2: 1, LSense: 1,
	}
}

// R1 returns receiver 1's distance from its sender.
func (c Config) R1() float64 { return math.Hypot(c.X1, c.Y1) }

// R2 returns receiver 2's distance from its sender.
func (c Config) R2() float64 { return math.Hypot(c.X2, c.Y2) }

// SampleConfig draws a random configuration: receivers uniform over
// their R_max discs and independent lognormal shadowing on the five
// channels (footnote 14: distributions assumed uncorrelated).
func (m *Model) SampleConfig(src *rng.Source, rmax, d float64) Config {
	p1 := geometry.UniformInDisc(src, rmax)
	p2 := geometry.UniformInDisc(src, rmax)
	sigma := m.params.SigmaDB
	return Config{
		D:      d,
		X1:     p1.X,
		Y1:     p1.Y,
		X2:     p2.X,
		Y2:     p2.Y,
		LSig1:  src.LognormalDB(sigma),
		LInt1:  src.LognormalDB(sigma),
		LSig2:  src.LognormalDB(sigma),
		LInt2:  src.LognormalDB(sigma),
		LSense: src.LognormalDB(sigma),
	}
}

// SignalPower returns the serving signal power at receiver i (1 or 2).
func (m *Model) SignalPower(c Config, i int) float64 {
	if i == 1 {
		return m.pathGainSq(c.X1*c.X1+c.Y1*c.Y1) * c.LSig1
	}
	return m.pathGainSq(c.X2*c.X2+c.Y2*c.Y2) * c.LSig2
}

// InterferencePower returns the interfering sender's power at receiver
// i. By the symmetry of the scenario, the squared interferer-receiver
// distance for both pairs is Δr² = (x+D)² + y² (§3.2.2's Δr with the
// interferer at Cartesian (-D, 0)).
func (m *Model) InterferencePower(c Config, i int) float64 {
	if i == 1 {
		dx := c.X1 + c.D
		return m.pathGainSq(dx*dx+c.Y1*c.Y1) * c.LInt1
	}
	dx := c.X2 + c.D
	return m.pathGainSq(dx*dx+c.Y2*c.Y2) * c.LInt2
}

// SensedPower returns the power each sender senses from the other:
// D^-α · L″.
func (m *Model) SensedPower(c Config) float64 {
	return m.pathGain(c.D) * c.LSense
}

// CSingle is the no-competition throughput of pair i:
// cap(signal / N) — equation C_single of §3.2.2.
func (m *Model) CSingle(c Config, i int) float64 {
	return m.cap.Throughput(m.SignalPower(c, i) / m.noise)
}

// CMultiplexing is pair i's throughput under ideal time-division
// multiplexing: half the no-competition throughput.
func (m *Model) CMultiplexing(c Config, i int) float64 {
	return m.CSingle(c, i) / 2
}

// CConcurrent is pair i's throughput when both senders transmit
// simultaneously: cap(signal / (N + interference)).
func (m *Model) CConcurrent(c Config, i int) float64 {
	snr := m.SignalPower(c, i) / (m.noise + m.InterferencePower(c, i))
	return m.cap.Throughput(snr)
}

// Defers reports the carrier sense decision for the configuration:
// true when the sensed power exceeds the threshold (multiplex), false
// when below (transmit concurrently).
func (m *Model) Defers(c Config, pThresh float64) bool {
	return m.SensedPower(c) > pThresh
}

// CCarrierSense is pair i's throughput under threshold carrier sense:
// the piecewise C_cs of §3.2.2.
func (m *Model) CCarrierSense(c Config, i int, pThresh float64) float64 {
	if m.Defers(c, pThresh) {
		return m.CMultiplexing(c, i)
	}
	return m.CConcurrent(c, i)
}

// CMax is the genie-optimal per-pair average throughput: the better of
// all-concurrent and all-multiplexed, decided jointly over both pairs
// (½·Max[ΣC_conc, ΣC_mux] of §3.2.2). The weak fairness constraint —
// equal channel resources for both senders — is what restricts the
// genie to this binary choice.
func (m *Model) CMax(c Config) float64 {
	conc := m.CConcurrent(c, 1) + m.CConcurrent(c, 2)
	mux := m.CMultiplexing(c, 1) + m.CMultiplexing(c, 2)
	return math.Max(conc, mux) / 2
}

// OptimalPrefersConcurrency reports which branch CMax takes for the
// configuration.
func (m *Model) OptimalPrefersConcurrency(c Config) bool {
	conc := m.CConcurrent(c, 1) + m.CConcurrent(c, 2)
	mux := m.CMultiplexing(c, 1) + m.CMultiplexing(c, 2)
	return conc >= mux
}

// CUBMax is the per-pair upper bound on optimal throughput that
// decouples the pairs: Max[C_conc, C_mux] for pair i alone (§3.2.2).
// ⟨C_max⟩ ≤ ⟨C_UBmax⟩, and footnote 10 identifies the gap as the
// headroom an "aggressive" MAC forfeits by having to serve both pairs.
func (m *Model) CUBMax(c Config, i int) float64 {
	return math.Max(m.CConcurrent(c, i), m.CMultiplexing(c, i))
}

// PrefersMultiplexing reports whether receiver i, in isolation, does
// better under multiplexing than concurrency (the preference regions
// of Figure 3).
func (m *Model) PrefersMultiplexing(c Config, i int) bool {
	return m.CMultiplexing(c, i) > m.CConcurrent(c, i)
}

// StarvedUnderConcurrency reports whether receiver i gets less than
// frac (the paper uses 0.10) of its C_UBmax under concurrency — the
// white regions of Figure 3, the genuinely "hidden" terminals.
func (m *Model) StarvedUnderConcurrency(c Config, i int, frac float64) bool {
	ub := m.CUBMax(c, i)
	if ub <= 0 {
		return false
	}
	return m.CConcurrent(c, i) < frac*ub
}
