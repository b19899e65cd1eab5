// Package capacity models achievable link throughput as a function of
// SINR.
//
// The analytical model (§2) uses the Shannon capacity formula
// C/B = log(1 + SNR) "as a rough proportional estimate" of what an
// adaptive bitrate radio achieves. The packet simulator instead uses
// the discrete 802.11a rate set with per-rate SINR requirements and
// packet error rate (PER) curves. Both live here, behind a common
// Model interface so the core model can swap capacity functions — the
// adaptive-vs-fixed-bitrate comparison is the paper's central
// analytical move (§3.3.2: a fixed rate "would transform this smooth
// SNR gradient into a step-like drop in throughput").
package capacity

import "math"

// Model maps a linear SINR to a throughput in abstract capacity units
// (nats/symbol for the Shannon model; fractions of a reference rate
// for the discrete models). Only ratios of these values are ever
// reported, so the unit cancels.
type Model interface {
	// Throughput returns achievable throughput at the given linear
	// SINR. Must be nonnegative and nondecreasing in snr.
	Throughput(snr float64) float64
	// Name identifies the model in reports.
	Name() string
}

// Shannon is the paper's adaptive-bitrate capacity model:
// Efficiency · ln(1 + SNR). Efficiency is the "less by some constant
// fraction" of §3.2.1's assumptions; it cancels in all ratios and
// defaults to 1.
type Shannon struct {
	Efficiency float64
}

// NewShannon returns a Shannon model with unit efficiency.
func NewShannon() Shannon { return Shannon{Efficiency: 1} }

// Throughput implements Model.
func (s Shannon) Throughput(snr float64) float64 {
	if snr <= 0 {
		return 0
	}
	eff := s.Efficiency
	if eff == 0 {
		eff = 1
	}
	return eff * math.Log1p(snr)
}

// Name implements Model.
func (s Shannon) Name() string { return "shannon" }

// FixedRate is the classical fixed-bitrate abstraction the paper
// criticizes: full rate above an SINR threshold, nothing below it —
// the "cookie cutter" interference model. Used for ablations that
// reproduce why prior work saw carrier sense so unfavorably.
type FixedRate struct {
	// Rate is the throughput delivered when the link works.
	Rate float64
	// MinSNR is the linear SINR below which nothing is delivered.
	MinSNR float64
}

// Throughput implements Model.
func (f FixedRate) Throughput(snr float64) float64 {
	if snr >= f.MinSNR {
		return f.Rate
	}
	return 0
}

// Name implements Model.
func (f FixedRate) Name() string { return "fixed-rate" }

// Discrete models an adaptive radio restricted to a finite rate set:
// the best rate whose SINR requirement is met. This sits between
// Shannon and FixedRate, matching real 802.11 hardware; §4.2 observes
// the testbed entering exactly this intermediate regime when bitrate
// flexibility runs out.
type Discrete struct {
	Table RateTable
}

// Throughput implements Model. The returned unit is Mb/s.
func (d Discrete) Throughput(snr float64) float64 {
	snrDB := 10 * math.Log10(snr)
	best := 0.0
	for _, r := range d.Table {
		// The tiny tolerance absorbs the dB→linear→dB round trip so a
		// link at exactly MinSNRdB qualifies.
		if snrDB >= r.MinSNRdB-1e-9 && r.Mbps > best {
			best = r.Mbps
		}
	}
	return best
}

// Name implements Model.
func (d Discrete) Name() string { return "discrete" }

// Modulation distinguishes the PHY families a rate belongs to; frame
// timing differs between them (OFDM symbols versus DSSS's long
// preamble and bit-serial payload).
type Modulation int

// DSSS is the 802.11b direct-sequence PHY (192 µs long preamble,
// payload at the nominal bit rate). The zero Modulation is OFDM, the
// 802.11a/g symbol-based PHY (4 µs symbols).
const DSSS Modulation = 1

// Rate describes one entry of a discrete PHY rate set.
type Rate struct {
	Mbps          float64 // nominal data rate
	BitsPerSymbol int     // data bits per 4 µs OFDM symbol (OFDM only)
	// MinSNRdB is the SINR at which 1400-byte frames succeed ~50% of
	// the time; the logistic PER curve is centered here.
	MinSNRdB float64
	// Modulation selects the frame timing family (zero value OFDM).
	Modulation Modulation
}

// RateTable is an ordered (ascending Mbps) set of PHY rates.
type RateTable []Rate

// Table80211a is the full 802.11a OFDM rate set with per-rate SINR
// requirements representative of commodity hardware.
var Table80211a = RateTable{
	{Mbps: 6, BitsPerSymbol: 24, MinSNRdB: 6},
	{Mbps: 9, BitsPerSymbol: 36, MinSNRdB: 7.8},
	{Mbps: 12, BitsPerSymbol: 48, MinSNRdB: 9},
	{Mbps: 18, BitsPerSymbol: 72, MinSNRdB: 10.8},
	{Mbps: 24, BitsPerSymbol: 96, MinSNRdB: 14},
	{Mbps: 36, BitsPerSymbol: 144, MinSNRdB: 18},
	{Mbps: 48, BitsPerSymbol: 192, MinSNRdB: 22},
	{Mbps: 54, BitsPerSymbol: 216, MinSNRdB: 24},
}

// TablePaperDriver is the rate subset the paper's experiments could
// exercise: "each of 6, 9, 12, 18, and 24 Mbps" (§4) — higher rates
// performed too poorly under the OpenHAL driver.
var TablePaperDriver = Table80211a[:5]

// Table80211b is the DSSS rate set with representative SINR
// requirements. The robust 1 and 2 Mb/s rates are what §4.2 wishes it
// had for "deeper long-range scenarios" ("11g mode, capable of lower
// bitrates").
var Table80211b = RateTable{
	{Mbps: 1, MinSNRdB: 1, Modulation: DSSS},
	{Mbps: 2, MinSNRdB: 3, Modulation: DSSS},
	{Mbps: 5.5, MinSNRdB: 6, Modulation: DSSS},
	{Mbps: 11, MinSNRdB: 9, Modulation: DSSS},
}

// perWidthDB is the logistic PER transition width: the curve moves
// from ~90% to ~10% loss over about 4.4 × this many dB, matching the
// 2-3 dB transition bands of measured OFDM PER curves.
const perWidthDB = 0.6

// refFrameBytes is the frame length at which MinSNRdB is calibrated.
const refFrameBytes = 1400

// PER returns the packet error rate for a frame of the given length at
// the given SINR (dB) and rate. The reference curve is logistic in dB,
// centered on the rate's MinSNRdB for 1400-byte frames, and scales
// with length as independent per-fragment survival:
//
//	PER(snr, L) = 1 - (1 - PER_ref(snr))^(L/1400)
func PER(r Rate, snrDB float64, frameBytes int) float64 {
	if frameBytes <= 0 {
		return 0
	}
	x := (snrDB - r.MinSNRdB) / perWidthDB
	// Clamp to keep Exp in range.
	if x > 40 {
		x = 40
	} else if x < -40 {
		x = -40
	}
	ref := 1 / (1 + math.Exp(x))
	scale := float64(frameBytes) / refFrameBytes
	per := 1 - math.Pow(1-ref, scale)
	if per < 0 {
		return 0
	}
	if per > 1 {
		return 1
	}
	return per
}

// DeliveryRate returns 1 - PER: the expected fraction of frames of the
// given length delivered at the given SINR and rate.
func DeliveryRate(r Rate, snrDB float64, frameBytes int) float64 {
	return 1 - PER(r, snrDB, frameBytes)
}

// FadeModel describes per-frame residual channel variation: a Gaussian
// dB wobble (the "few dB" residual of a wideband channel, appendix)
// plus an occasional deep fade (frequency-selective outage bursts, the
// mechanism that lets real links sit at comfortable median SNR yet
// still lose 5-20% of frames — the paper's 80-95%-delivery "long
// range" links averaged 16 dB SNR, far above the AWGN cliff).
type FadeModel struct {
	// SigmaDB is the everyday Gaussian spread.
	SigmaDB float64
	// OutageProb is the per-frame probability of a deep fade.
	OutageProb float64
	// OutageDepthDB is the additional loss during a deep fade.
	OutageDepthDB float64
}

// DefaultFade returns the residual fading model used by the packet
// simulator: ±2.5 dB everyday wobble with a 2% baseline chance of a
// deep 25 dB fade that kills a frame at any rate. Per-link outage
// probabilities (see the testbed's outage matrix) override the
// baseline: real intermediate-quality links lose frames mostly to
// rate-independent bursts, which is how the paper's 80-95%-delivery
// links can average 16 dB SNR — far above the 6 Mb/s AWGN cliff — and
// still drop frames.
func DefaultFade() FadeModel {
	return FadeModel{SigmaDB: 2.5, OutageProb: 0.02, OutageDepthDB: 25}
}

// WithOutageProb returns a copy of the model with the outage
// probability replaced (used to apply per-link outage rates).
func (f FadeModel) WithOutageProb(p float64) FadeModel {
	f.OutageProb = p
	return f
}

// Zero reports whether the model is a no-op.
func (f FadeModel) Zero() bool {
	return f.SigmaDB <= 0 && (f.OutageProb <= 0 || f.OutageDepthDB <= 0)
}

// fadeNodes are ExpectedDeliveryRate's 33 midpoint nodes over ±4σ, in
// σ units, and fadeWeights their Gaussian weights exp(−x²/2);
// fadeWeightSum adds the weights in node order. A link census
// evaluates thousands of links, so the weights are computed once.
var fadeNodes, fadeWeights, fadeWeightSum = func() ([]float64, []float64, float64) {
	const n = 33
	nodes, weights := make([]float64, n), make([]float64, n)
	sum := 0.0
	for i := range nodes {
		x := -4 + 8*(float64(i)+0.5)/n
		nodes[i], weights[i] = x, math.Exp(-x*x/2)
		sum += weights[i]
	}
	return nodes, weights, sum
}()

// ExpectedDeliveryRate returns the delivery rate at the given median
// SINR averaged over the fade distribution — the long-run delivery
// fraction a link census measures. Computed by 33-point midpoint
// quadrature over ±4σ for each mixture branch.
func (f FadeModel) ExpectedDeliveryRate(r Rate, medianSNRdB float64, frameBytes int) float64 {
	if f.Zero() {
		return DeliveryRate(r, medianSNRdB, frameBytes)
	}
	branch := func(offset float64) float64 {
		if f.SigmaDB <= 0 {
			return DeliveryRate(r, medianSNRdB+offset, frameBytes)
		}
		total := 0.0
		for i, x := range fadeNodes {
			total += fadeWeights[i] * DeliveryRate(r, medianSNRdB+offset+x*f.SigmaDB, frameBytes)
		}
		return total / fadeWeightSum
	}
	p := f.OutageProb
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	return (1-p)*branch(0) + p*branch(-f.OutageDepthDB)
}
