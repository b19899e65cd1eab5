package core

// Fused per-sample evaluation: the Monte Carlo hot path behind every
// kernel in this package. The policy formulas of model.go are written
// for clarity — CUBMax calls CConcurrent which calls SignalPower
// which calls pathGain — and the averages integrand used
// to walk that tree ~13 times per sample, re-running the same
// math.Pow path gains and interferer trigonometry each time. The
// fused evaluator computes each primitive exactly once per sample:
//
//   - one Evaluated struct holds the five received powers
//     (serving and interfering power at each receiver, plus the
//     sensing-channel shadowing), each derived from a single squared
//     distance and one pathGainSq call;
//   - per-point constants — pathGain(D) and the threshold comparison
//     rewritten into the shadowing domain — are hoisted into
//     pointEval, outside the sample loop, and capacity goes through
//     Model.thr, which calls the default Shannon formula directly;
//   - every integrand (averages, single, bad-snr) is a thin projection
//     over the same draw, and names the primitives it reads (receiver
//     1, receiver 2, sensing) so the draw computes only those;
//   - averages-row draws once per sample for a whole tables row and
//     evaluates the averages integrand at each D of the row, since D
//     moves only the two interference path gains;
//   - policy-diff is a split kernel (montecarlo.RegisterSplitKernel):
//     its draw writes a record of what the variates decide, and its
//     evaluation adds what D moves, so a threshold search draws each
//     shard once.
//
// Determinism contract: draw consumes every random variate, in
// exactly the order the tests' SampleConfig does (two disc points,
// then five lognormal shadowing factors), whatever the integrand
// reads, so shard streams stay aligned across kernels, the chunked
// and one-sample-per-call paths, worker fleets, and the cache. Only
// what is read is transformed: an unread disc point skips its Sqrt,
// Sincos and path gains, and an unread shadowing factor skips its Exp
// (and, on a uniform-hooked source, its NormalQuantile) through
// rng.SkipNormal.

import (
	"math"

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
	// senseThresh2 is the same for the row kernel's second threshold.
	senseThresh2 float64
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
	return pe
}

// withThreshold2 sets the row kernel's second threshold distance.
func (pe *pointEval) withThreshold2(dThresh2 float64) *pointEval {
	pe.senseThresh2 = pe.m.ThresholdPower(dThresh2) / pe.gainD
	return pe
}

// reads is the set of primitives an integrand reads from a draw.
type reads uint8

const (
	readRx1   reads = 1 << iota // Sig1, Int1
	readRx2                     // Sig2, Int2
	readSense                   // LSense
	readAll   = readRx1 | readRx2 | readSense
)

// draw samples one configuration and computes the received powers in
// r; the fields of primitives outside r hold no meaning. Random
// variates are consumed in exactly the order the tests' SampleConfig
// uses: receiver 1 position, receiver 2 position, then the five
// lognormal shadowing draws (none when σ = 0, matching rng.LognormalDB).
func (pe *pointEval) draw(src *rng.Source, r reads) Evaluated {
	m := pe.m
	e := Evaluated{LSense: 1}
	if r&readRx1 != 0 {
		p := geometry.UniformInDisc(src, pe.rmax)
		dx := p.X + pe.d
		e.Sig1 = m.pathGainSq(p.X*p.X + p.Y*p.Y)
		e.Int1 = m.pathGainSq(dx*dx + p.Y*p.Y)
	} else {
		skipDisc(src)
	}
	if r&readRx2 != 0 {
		p := geometry.UniformInDisc(src, pe.rmax)
		dx := p.X + pe.d
		e.Sig2 = m.pathGainSq(p.X*p.X + p.Y*p.Y)
		e.Int2 = m.pathGainSq(dx*dx + p.Y*p.Y)
	} else {
		skipDisc(src)
	}
	sigma := pe.sigma
	if sigma == 0 {
		return e
	}
	if r&readRx1 != 0 {
		e.Sig1 *= src.LognormalDB(sigma)
		e.Int1 *= src.LognormalDB(sigma)
	} else {
		src.SkipNormal()
		src.SkipNormal()
	}
	if r&readRx2 != 0 {
		e.Sig2 *= src.LognormalDB(sigma)
		e.Int2 *= src.LognormalDB(sigma)
	} else {
		src.SkipNormal()
		src.SkipNormal()
	}
	if r&readSense != 0 {
		e.LSense = src.LognormalDB(sigma)
	} else {
		src.SkipNormal()
	}
	return e
}

// skipDisc consumes the two uniforms (radius, angle) of a
// geometry.UniformInDisc point nobody reads.
func skipDisc(src *rng.Source) {
	src.Float64()
	src.Float64()
}

// defers reports the carrier sense decision for the drawn sample, with
// the threshold comparison pre-divided into the shadowing domain.
func (pe *pointEval) defers(e Evaluated) bool {
	return e.LSense > pe.senseThresh
}

// averagesSample is the fused form of the EstimateAverages integrand:
// 4 path gains and 4 capacity evaluations per sample instead of the
// ~13 of each the unfused policy-formula tree performed.
func (pe *pointEval) averagesSample(e Evaluated, out []float64) {
	mux1, mux2 := pe.sharedSample(e, out)
	pe.policySample(e, mux1, mux2, out)
}

// sharedSample writes the components no D moves, ⟨C_single⟩ and
// ⟨C_mux⟩, and returns both receivers' multiplexing capacities.
func (pe *pointEval) sharedSample(e Evaluated, out []float64) (mux1, mux2 float64) {
	single1 := pe.m.thr(e.Sig1 / pe.noise)
	out[idxSingle] = single1
	out[idxMux] = single1 / 2
	return single1 / 2, pe.m.thr(e.Sig2/pe.noise) / 2
}

// policySample writes the components D moves, idxConc through
// idxDeferred, from the sample's powers and both receivers'
// multiplexing capacities.
func (pe *pointEval) policySample(e Evaluated, mux1, mux2 float64, out []float64) {
	noise := pe.noise
	conc1 := pe.m.thr(e.Sig1 / (noise + e.Int1))
	conc2 := pe.m.thr(e.Sig2 / (noise + e.Int2))
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
func (pe *pointEval) singleSample(e Evaluated, out []float64) {
	out[0] = pe.m.thr(e.Sig1 / pe.noise)
}

// badSNRSample is the fused §3.4 indicator: spurious concurrency
// leaving receiver 1 below 0 dB SNR. It needs no capacity evaluation
// at all.
func (pe *pointEval) badSNRSample(e Evaluated, out []float64) {
	if pe.defers(e) {
		return
	}
	if e.Sig1/(pe.noise+e.Int1) < 1 { // below 0 dB
		out[0] = 1
	}
}

// Batch forms: one montecarlo.BatchEvalFunc call evaluates a whole
// buffer chunk through direct (devirtualized, inlinable) method calls
// on the shared pointEval, so the plain path pays the kernel's
// indirect call once per chunk, not once per sample. Each batch's draw
// names the primitives its integrand reads. Samples are
// evaluated in order on the same stream and pointEval is read-only
// after construction, so count calls with count = 1 are bit-identical
// to one call with count.

func (pe *pointEval) averagesBatch(src *rng.Source, count int, out []float64) {
	for i := 0; i < count; i++ {
		pe.averagesSample(pe.draw(src, readAll), out[i*nAverages:(i+1)*nAverages:(i+1)*nAverages])
	}
}

func (pe *pointEval) singleBatch(src *rng.Source, count int, out []float64) {
	for i := 0; i < count; i++ {
		pe.singleSample(pe.draw(src, readRx1), out[i:i+1:i+1])
	}
}

func (pe *pointEval) badSNRBatch(src *rng.Source, count int, out []float64) {
	for i := 0; i < count; i++ {
		pe.badSNRSample(pe.draw(src, readRx1|readSense), out[i:i+1:i+1])
	}
}

// policyDiffRecLen is the length of a core/policy-diff draw record:
// receiver 1's position x and y, its shadowed serving power Sig1, and
// the shadowing factor of its interfering power.
const policyDiffRecLen = 4

// policyDiffDim is core/policy-diff's component count: C_conc, C_mux.
const policyDiffDim = 2

// policyDiff is the common-random-numbers C_conc/C_mux pair behind
// OptimalThresholdMC, a montecarlo.SplitKernel split at the one place
// the interferer distance D enters: the draw writes everything the
// variates decide, and the evaluation adds the interference path gain,
// which D moves. A threshold search keeps the draws of one seed in a
// draw memo and evaluates them at every D it tries.
type policyDiff pointEval

// drawKey is a two-pair kernel's draw identity: the params its draw
// reads. D, the thresholds, the noise and the capacity model only
// enter the evaluation.
type drawKey struct{ alpha, sigma, rmax float64 }

func (pe *pointEval) drawKey() drawKey {
	return drawKey{alpha: pe.m.params.Alpha, sigma: pe.sigma, rmax: pe.rmax}
}

// Draw is draw(src, readRx1) stopped before the interference path
// gain: the same variates in the same order, Sig1 computed and
// shadowed as draw computes it, and Int1's shadowing factor kept.
func (k *policyDiff) Draw(src *rng.Source, count int, rec []float64) {
	pe := (*pointEval)(k)
	m, sigma := pe.m, pe.sigma
	for i := 0; i < count; i++ {
		r := rec[i*policyDiffRecLen : (i+1)*policyDiffRecLen : (i+1)*policyDiffRecLen]
		p := geometry.UniformInDisc(src, pe.rmax)
		sig, lInt := m.pathGainSq(p.X*p.X+p.Y*p.Y), 1.0
		skipDisc(src)
		if sigma != 0 {
			sig *= src.LognormalDB(sigma)
			lInt = src.LognormalDB(sigma)
			src.SkipNormal()
			src.SkipNormal()
			src.SkipNormal()
		}
		r[0], r[1], r[2], r[3] = p.X, p.Y, sig, lInt
	}
}

// Eval completes each record as draw would (Int1 is the interference
// path gain times its shadowing factor, which is 1 at σ = 0) and
// evaluates C_conc and C_mux from it.
func (k *policyDiff) Eval(rec []float64, count int, out []float64) {
	pe := (*pointEval)(k)
	m, noise := pe.m, pe.noise
	for i := 0; i < count; i++ {
		r := rec[i*policyDiffRecLen : (i+1)*policyDiffRecLen : (i+1)*policyDiffRecLen]
		dx := r[0] + pe.d
		sig1, int1 := r[2], m.pathGainSq(dx*dx+r[1]*r[1])*r[3]
		out[2*i] = m.thr(sig1 / (noise + int1))
		out[2*i+1] = m.thr(sig1/noise) / 2
	}
}

// averagesRow is the core/averages-row kernel: a tables row's
// pointEvals, one per D, at one R_max and both thresholds. A sample is
// drawn once, as draw(src, readAll) draws it, up to the interference
// path gains, which D moves; those, and everything computed from them,
// are evaluated at each D. Column j of the row's components equals
// core/averages at the row's j-th D: the same variates, and the same
// operations on them.
type averagesRow []*pointEval

// sample writes one sample's row components: the shared ones, then
// column j's component k at j·rowBlock + k.
func (row averagesRow) sample(src *rng.Source, out []float64) {
	pe := row[0]
	m := pe.m
	p1 := geometry.UniformInDisc(src, pe.rmax)
	p2 := geometry.UniformInDisc(src, pe.rmax)
	e := Evaluated{
		Sig1:   m.pathGainSq(p1.X*p1.X + p1.Y*p1.Y),
		Sig2:   m.pathGainSq(p2.X*p2.X + p2.Y*p2.Y),
		LSense: 1,
	}
	lInt1, lInt2 := 1.0, 1.0
	if sigma := pe.sigma; sigma != 0 {
		e.Sig1 *= src.LognormalDB(sigma)
		lInt1 = src.LognormalDB(sigma)
		e.Sig2 *= src.LognormalDB(sigma)
		lInt2 = src.LognormalDB(sigma)
		e.LSense = src.LognormalDB(sigma)
	}
	mux1, mux2 := pe.sharedSample(e, out)
	for j, c := range row {
		dx1, dx2 := p1.X+c.d, p2.X+c.d
		e.Int1 = m.pathGainSq(dx1*dx1+p1.Y*p1.Y) * lInt1
		e.Int2 = m.pathGainSq(dx2*dx2+p2.Y*p2.Y) * lInt2
		col := out[j*rowBlock : j*rowBlock+nAveragesPair : j*rowBlock+nAveragesPair]
		c.policySample(e, mux1, mux2, col)
		if e.LSense > c.senseThresh2 {
			col[idxCS2] = mux1
			col[idxDeferred2] = 1
		} else {
			col[idxCS2] = col[idxConc]
			col[idxDeferred2] = 0
		}
	}
}

func (row averagesRow) batch(src *rng.Source, count int, out []float64) {
	dim := rowDim(len(row))
	for i := 0; i < count; i++ {
		row.sample(src, out[i*dim:(i+1)*dim:(i+1)*dim])
	}
}
