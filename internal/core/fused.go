package core

// Fused per-sample evaluation: the Monte Carlo hot path behind every
// kernel in this package. The policy formulas of model.go are written
// for clarity — CCarrierSense calls CConcurrent which calls
// SignalPower which calls pathGain — and the averages integrand used
// to walk that tree ~13 times per sample, re-running the same
// math.Pow path gains and interferer trigonometry each time. The
// fused evaluator computes each primitive exactly once per sample:
//
//   - one Evaluated struct holds the five received powers
//     (serving and interfering power at each receiver, plus the
//     sensing-channel shadowing), each derived from a single squared
//     distance and one pathGainSq call;
//   - per-point constants — pathGain(D), the threshold comparison
//     rewritten into the shadowing domain, the devirtualized Shannon
//     capacity — are hoisted into pointEval, outside the sample loop;
//   - every integrand (averages, single, fairness, bad-snr,
//     policy-diff) is a thin projection over the same draw.
//
// Determinism contract: draw consumes random variates in exactly the
// order SampleConfig does (two disc points, then five lognormal
// shadowing factors), so shard streams stay aligned across the
// chunked and one-sample-per-call paths, worker fleets, and the cache.

import (
	"math"

	"carriersense/internal/capacity"
	"carriersense/internal/geometry"
	"carriersense/internal/rng"
)

// Evaluated holds every primitive of one sampled configuration,
// computed exactly once: the four received powers the capacity
// formulas consume and the sensing-channel shadowing factor the
// deferral decision consumes.
type Evaluated struct {
	Sig1, Int1 float64 // serving / interfering power at receiver 1
	Sig2, Int2 float64 // serving / interfering power at receiver 2
	LSense     float64 // shadowing on the S1↔S2 sensing channel
}

// pointEval is the fused evaluator for one (R_max, D, D_thresh)
// estimation point. Everything that is constant across samples is
// computed here, once, instead of inside the sample loop.
type pointEval struct {
	m       *Model
	rmax, d float64
	sigma   float64
	noise   float64
	gainD   float64 // pathGain(D): the median sensed power, hoisted
	// senseThresh is the deferral threshold moved into the shadowing
	// domain: sensed = pathGain(D)·L″ > P_thresh  ⇔  L″ > senseThresh.
	// For σ = 0 the comparison becomes a per-point constant.
	senseThresh float64
	// shanEff > 0 devirtualizes the (default) Shannon capacity model:
	// thr() inlines eff·Log1p instead of an interface dispatch.
	shanEff float64
}

func (m *Model) newPointEval(rmax, d, dThresh float64) *pointEval {
	pe := &pointEval{
		m:     m,
		rmax:  rmax,
		d:     d,
		sigma: m.params.SigmaDB,
		noise: m.noise,
		gainD: m.pathGain(d),
	}
	pe.senseThresh = m.ThresholdPower(dThresh) / pe.gainD
	if s, ok := m.cap.(capacity.Shannon); ok {
		pe.shanEff = s.Efficiency
		if pe.shanEff == 0 {
			pe.shanEff = 1
		}
	}
	return pe
}

// thr maps linear SINR to throughput, inlining the Shannon formula
// when possible.
func (pe *pointEval) thr(snr float64) float64 {
	if pe.shanEff > 0 {
		if snr <= 0 {
			return 0
		}
		return pe.shanEff * math.Log1p(snr)
	}
	return pe.m.cap.Throughput(snr)
}

// draw samples one configuration and computes its received powers.
// Random variates are consumed in exactly the order SampleConfig uses:
// receiver 1 position, receiver 2 position, then the five lognormal
// shadowing draws (none when σ = 0, matching rng.LognormalDB).
func (pe *pointEval) draw(src *rng.Source) Evaluated {
	p1 := geometry.UniformInDisc(src, pe.rmax)
	p2 := geometry.UniformInDisc(src, pe.rmax)
	m := pe.m
	dx1 := p1.X + pe.d
	dx2 := p2.X + pe.d
	e := Evaluated{
		Sig1:   m.pathGainSq(p1.X*p1.X + p1.Y*p1.Y),
		Int1:   m.pathGainSq(dx1*dx1 + p1.Y*p1.Y),
		Sig2:   m.pathGainSq(p2.X*p2.X + p2.Y*p2.Y),
		Int2:   m.pathGainSq(dx2*dx2 + p2.Y*p2.Y),
		LSense: 1,
	}
	if sigma := pe.sigma; sigma != 0 {
		e.Sig1 *= src.LognormalDB(sigma)
		e.Int1 *= src.LognormalDB(sigma)
		e.Sig2 *= src.LognormalDB(sigma)
		e.Int2 *= src.LognormalDB(sigma)
		e.LSense = src.LognormalDB(sigma)
	}
	return e
}

// defers reports the carrier sense decision for the drawn sample, with
// the threshold comparison pre-divided into the shadowing domain.
func (pe *pointEval) defers(e Evaluated) bool {
	return e.LSense > pe.senseThresh
}

// averagesSample is the fused form of the EstimateAverages integrand:
// 4 path gains and 4 capacity evaluations per sample instead of the
// ~13 of each the unfused policy-formula tree performed.
func (pe *pointEval) averagesSample(src *rng.Source, out []float64) {
	e := pe.draw(src)
	noise := pe.noise
	single1 := pe.thr(e.Sig1 / noise)
	single2 := pe.thr(e.Sig2 / noise)
	conc1 := pe.thr(e.Sig1 / (noise + e.Int1))
	conc2 := pe.thr(e.Sig2 / (noise + e.Int2))
	mux1 := single1 / 2
	mux2 := single2 / 2

	out[idxSingle] = single1
	out[idxMux] = mux1
	out[idxConc] = conc1
	deferred := pe.defers(e)
	if deferred {
		out[idxCS] = mux1
		out[idxDeferred] = 1
	} else {
		out[idxCS] = conc1
		out[idxDeferred] = 0
	}
	out[idxMax] = math.Max(conc1+conc2, mux1+mux2) / 2
	ub := math.Max(conc1, mux1)
	out[idxUBMax] = ub
	if ub > 0 && conc1 < StarvationFraction*ub {
		out[idxStarved] = 1
	} else {
		out[idxStarved] = 0
	}
}

// singleSample is the fused no-competition integrand.
func (pe *pointEval) singleSample(src *rng.Source, out []float64) {
	e := pe.draw(src)
	out[0] = pe.thr(e.Sig1 / pe.noise)
}

// fairnessSample is the fused Jain-index-plus-starvation integrand.
func (pe *pointEval) fairnessSample(src *rng.Source, out []float64) {
	e := pe.draw(src)
	noise := pe.noise
	single1 := pe.thr(e.Sig1 / noise)
	single2 := pe.thr(e.Sig2 / noise)
	conc1 := pe.thr(e.Sig1 / (noise + e.Int1))
	conc2 := pe.thr(e.Sig2 / (noise + e.Int2))
	deferred := pe.defers(e)
	x1, x2 := conc1, conc2
	if deferred {
		x1, x2 = single1/2, single2/2
	}
	if x1+x2 > 0 {
		out[0] = (x1 + x2) * (x1 + x2) / (2 * (x1*x1 + x2*x2))
	} else {
		out[0] = 1
	}
	ub := math.Max(conc1, single1/2)
	starved := ub > 0 && conc1 < StarvationFraction*ub
	if starved {
		out[1] = 1
		if !deferred {
			out[2] = 1
		}
	}
}

// badSNRSample is the fused §3.4 indicator: spurious concurrency
// leaving receiver 1 below 0 dB SNR. It needs no capacity evaluation
// at all.
func (pe *pointEval) badSNRSample(src *rng.Source, out []float64) {
	e := pe.draw(src)
	if pe.defers(e) {
		return
	}
	if e.Sig1/(pe.noise+e.Int1) < 1 { // below 0 dB
		out[0] = 1
	}
}

// policyDiffSample is the fused common-random-numbers C_conc/C_mux
// pair behind OptimalThresholdMC.
func (pe *pointEval) policyDiffSample(src *rng.Source, out []float64) {
	e := pe.draw(src)
	out[0] = pe.thr(e.Sig1 / (pe.noise + e.Int1))
	out[1] = pe.thr(e.Sig1/pe.noise) / 2
}

// Batch forms: one montecarlo.BatchEvalFunc call evaluates a whole
// buffer chunk through direct (devirtualized, inlinable) method calls
// on the shared pointEval, so the plain path pays the kernel's
// indirect call once per chunk, not once per sample. Samples are
// evaluated in order on the same stream and pointEval is read-only
// after construction, so count calls with count = 1 are bit-identical
// to one call with count.

func (pe *pointEval) averagesBatch(src *rng.Source, count int, out []float64) {
	for i := 0; i < count; i++ {
		pe.averagesSample(src, out[i*nAverages:(i+1)*nAverages:(i+1)*nAverages])
	}
}

func (pe *pointEval) singleBatch(src *rng.Source, count int, out []float64) {
	for i := 0; i < count; i++ {
		pe.singleSample(src, out[i:i+1:i+1])
	}
}

func (pe *pointEval) fairnessBatch(src *rng.Source, count int, out []float64) {
	for i := 0; i < count; i++ {
		pe.fairnessSample(src, out[i*3:(i+1)*3:(i+1)*3])
	}
}

func (pe *pointEval) badSNRBatch(src *rng.Source, count int, out []float64) {
	for i := 0; i < count; i++ {
		pe.badSNRSample(src, out[i:i+1:i+1])
	}
}

func (pe *pointEval) policyDiffBatch(src *rng.Source, count int, out []float64) {
	for i := 0; i < count; i++ {
		pe.policyDiffSample(src, out[i*2:(i+1)*2:(i+1)*2])
	}
}
