package core

import (
	"context"
	"math"
	"math/bits"
	"sync"

	"carriersense/internal/capacity"
	"carriersense/internal/geometry"
	"carriersense/internal/montecarlo"
	"carriersense/internal/rng"
)

// This file extends the two-pair model of §3 to n competing
// sender-receiver pairs — the case the paper set aside with "small
// n > 2 does not appear to fundamentally alter the results, but it
// does complicate matters dramatically" (§3.2.1), and the dimension
// along which [Vutukuru08]'s exposed-terminal gains grew (footnote 18:
// "their best result, 47% average improvement, required six concurrent
// senders").
//
// Policies generalize as follows:
//
//   - TDMA: each pair owns 1/n of the time at full capacity.
//   - Concurrency: everyone transmits; interference sums over the
//     other n-1 senders.
//   - Carrier sense: per round, a random arrival order greedily builds
//     a maximal independent set of the *sensing graph* (senders join
//     when no already-active sender is sensed above threshold) — the
//     natural n-sender abstraction of DCF.
//   - UniformK (the fairness-respecting optimal proxy): in each slot a
//     uniformly random k-subset transmits, so every sender gets k/n of
//     the airtime; the best k nests TDMA (k = 1) and full concurrency
//     (k = n) and reduces to the paper's binary choice at n = 2.

// MultiParams configures the n-pair model.
type MultiParams struct {
	Env Params
	// NPairs is the number of competing sender-receiver pairs.
	NPairs int
	// AreaRadius is the radius of the disc the senders are scattered
	// over (the analogue of the two-pair D, now a density knob).
	AreaRadius float64
	// Rmax is the receiver placement radius around each sender.
	Rmax float64
	// DThresh is the carrier sense threshold distance.
	DThresh float64
	// Rounds is the number of random DCF rounds averaged per sampled
	// configuration (CS policy only).
	Rounds int
}

// DefaultMultiParams spreads n pairs over a disc sized so the mean
// nearest-neighbor spacing sits in the transition region when n = 2.
func DefaultMultiParams(nPairs int) MultiParams {
	return MultiParams{
		Env:        DefaultParams(),
		NPairs:     nPairs,
		AreaRadius: 80,
		Rmax:       40,
		DThresh:    55,
		Rounds:     24,
	}
}

// MultiModel evaluates the n-pair extension.
type MultiModel struct {
	p     MultiParams
	model *Model
	// shanEff > 0 devirtualizes the (default) Shannon capacity model,
	// exactly as pointEval.thr does for the two-pair kernels: the
	// policy loops call Throughput hundreds of times per sample.
	shanEff float64
}

// NewMulti constructs the n-pair model. Panics on invalid parameters.
func NewMulti(p MultiParams) *MultiModel {
	if p.NPairs < 1 {
		panic("core: NPairs must be >= 1")
	}
	if p.Rounds < 1 {
		p.Rounds = 1
	}
	mm := &MultiModel{p: p, model: New(p.Env)}
	if s, ok := mm.model.cap.(capacity.Shannon); ok {
		mm.shanEff = s.Efficiency
		if mm.shanEff == 0 {
			mm.shanEff = 1
		}
	}
	return mm
}

// thr maps linear SINR to throughput, inlining the Shannon formula
// when possible (bit-identical to Shannon.Throughput).
func (mm *MultiModel) thr(snr float64) float64 {
	if mm.shanEff > 0 {
		if snr <= 0 {
			return 0
		}
		return mm.shanEff * math.Log1p(snr)
	}
	return mm.model.cap.Throughput(snr)
}

// multiConfig is one sampled n-pair configuration.
type multiConfig struct {
	senders   []geometry.Point
	receivers []geometry.Point
	lSig      []float64   // sender_i -> receiver_i
	lInt      [][]float64 // lInt[j][i]: sender_j -> receiver_i
	lSense    [][]float64 // symmetric sender_i <-> sender_j
}

// multiScratch is one evaluator's reusable working set: the sampled
// configuration plus the per-sample linear gain caches. The policy
// evaluations query every channel many times per sample (the best-k
// search alone touches each interference link dozens of times), so the
// path-gain × shadowing products are computed once per sample into
// flat matrices and the policy loops reduce to cached multiplies and
// adds. A scratch is single-goroutine state: the per-sample evaluator
// builds a fresh one per call (it may run concurrently across shards),
// the batch evaluator builds one per chunk and amortizes it over
// hundreds of samples.
type multiScratch struct {
	c multiConfig
	// gSig[i] is sender_i → receiver_i: pathGainSq × lSig.
	gSig []float64
	// gInt[j*n+i] is sender_j → receiver_i: pathGainSq × lInt[j][i].
	gInt []float64
	// gSense[i*n+j] is sender_i ↔ sender_j: pathGainSq × lSense[i][j].
	gSense []float64
	order  []int
	idx    []int
}

// newScratch allocates a working set for n pairs.
func (mm *MultiModel) newScratch() *multiScratch {
	n := mm.p.NPairs
	sc := &multiScratch{
		c: multiConfig{
			senders:   make([]geometry.Point, n),
			receivers: make([]geometry.Point, n),
			lSig:      make([]float64, n),
			lInt:      make([][]float64, n),
			lSense:    make([][]float64, n),
		},
		gSig:   make([]float64, n),
		gInt:   make([]float64, n*n),
		gSense: make([]float64, n*n),
		order:  make([]int, n),
		idx:    make([]int, n),
	}
	for i := 0; i < n; i++ {
		sc.c.lInt[i] = make([]float64, n)
		sc.c.lSense[i] = make([]float64, n)
	}
	return sc
}

// sampleInto draws senders uniform over the area disc, receivers
// uniform within Rmax of their senders, and independent lognormal
// shadowing on every channel (sensing symmetric, as in the two-pair
// model), then folds geometry and shadowing into the linear gain
// caches. The draw order is fixed; reusing the scratch changes no
// values.
func (mm *MultiModel) sampleInto(src *rng.Source, sc *multiScratch) {
	n := mm.p.NPairs
	sigma := mm.p.Env.SigmaDB
	c := &sc.c
	for i := 0; i < n; i++ {
		c.senders[i] = geometry.UniformInDisc(src, mm.p.AreaRadius)
		c.receivers[i] = c.senders[i].Add(geometry.UniformInDisc(src, mm.p.Rmax))
		c.lSig[i] = src.LognormalDB(sigma)
	}
	for j := 0; j < n; j++ {
		for i := 0; i < n; i++ {
			if i != j {
				c.lInt[j][i] = src.LognormalDB(sigma)
			}
		}
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			l := src.LognormalDB(sigma)
			c.lSense[i][j] = l
			c.lSense[j][i] = l
		}
	}
	// Gain caches: every product below is exactly the term the policy
	// loops previously recomputed per query, so cached evaluation is
	// bit-identical.
	for i := 0; i < n; i++ {
		sc.gSig[i] = mm.model.pathGainSq(c.senders[i].DistSq(c.receivers[i])) * c.lSig[i]
		for j := 0; j < n; j++ {
			if j != i {
				sc.gInt[j*n+i] = mm.model.pathGainSq(c.senders[j].DistSq(c.receivers[i])) * c.lInt[j][i]
				sc.gSense[i*n+j] = mm.model.pathGainSq(c.senders[i].DistSq(c.senders[j])) * c.lSense[i][j]
			}
		}
	}
}

// pairCapacity returns pair i's capacity when the senders in active
// (a bitmask) transmit concurrently. Pair i must be active.
// Interference iterates the mask's set bits in ascending order — the
// same float summation order as a full 0..n scan, so the cached-matrix
// fast path is bit-identical to the original formulation.
func (mm *MultiModel) pairCapacity(sc *multiScratch, i int, active uint64) float64 {
	n := mm.p.NPairs
	interf := 0.0
	for rem := active &^ (1 << uint(i)); rem != 0; rem &= rem - 1 {
		j := bits.TrailingZeros64(rem)
		interf += sc.gInt[j*n+i]
	}
	return mm.thr(sc.gSig[i] / (mm.model.noise + interf))
}

// csRound runs one DCF round: arrival order is a random permutation;
// each sender joins unless it senses an already-active sender. Returns
// the active bitmask.
func (mm *MultiModel) csRound(src *rng.Source, sc *multiScratch, pThresh float64) uint64 {
	n := mm.p.NPairs
	order := sc.order
	for i := range order {
		order[i] = i
	}
	src.Shuffle(n, func(a, b int) { order[a], order[b] = order[b], order[a] })
	var active uint64
	for _, i := range order {
		blocked := false
		for rem := active; rem != 0; rem &= rem - 1 {
			if sc.gSense[i*n+bits.TrailingZeros64(rem)] > pThresh {
				blocked = true
				break
			}
		}
		if !blocked {
			active |= 1 << uint(i)
		}
	}
	return active
}

// csThroughput averages per-pair CS throughput over DCF rounds.
func (mm *MultiModel) csThroughput(src *rng.Source, sc *multiScratch, pThresh float64) float64 {
	n := mm.p.NPairs
	total := 0.0
	for r := 0; r < mm.p.Rounds; r++ {
		active := mm.csRound(src, sc, pThresh)
		// Active senders split the round among themselves implicitly:
		// everyone in the independent set transmits for the full
		// round; blocked senders get nothing this round. Averaging
		// over rounds with random order restores long-run fairness,
		// just as DCF's backoff lottery does.
		for rem := active; rem != 0; rem &= rem - 1 {
			total += mm.pairCapacity(sc, bits.TrailingZeros64(rem), active)
		}
	}
	return total / float64(mm.p.Rounds) / float64(n)
}

// uniformKThroughput estimates per-pair throughput when each slot
// activates a uniformly random k-subset. Exact enumeration is used
// when the subset count is small; otherwise sampled.
func (mm *MultiModel) uniformKThroughput(src *rng.Source, sc *multiScratch, k int) float64 {
	n := mm.p.NPairs
	if k <= 0 {
		return 0
	}
	if k >= n {
		total := 0.0
		all := uint64(1<<uint(n)) - 1
		for i := 0; i < n; i++ {
			total += mm.pairCapacity(sc, i, all)
		}
		return total / float64(n)
	}
	// Sample random k-subsets.
	const subsetSamples = 12
	idx := sc.idx
	for i := range idx {
		idx[i] = i
	}
	total := 0.0
	for s := 0; s < subsetSamples; s++ {
		src.Shuffle(n, func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		var active uint64
		for _, i := range idx[:k] {
			active |= 1 << uint(i)
		}
		for _, i := range idx[:k] {
			total += mm.pairCapacity(sc, i, active)
		}
	}
	// Each sender is active with probability k/n; the sum above counts
	// k senders per subset sample.
	return total / float64(subsetSamples) / float64(n)
}

// MultiAverages is the n-pair analogue of Averages: expected per-pair
// throughput of every policy.
type MultiAverages struct {
	NPairs int
	TDMA   montecarlo.Estimate
	Conc   montecarlo.Estimate
	CS     montecarlo.Estimate
	// BestK is the best uniform-concurrency-level policy: the
	// fairness-respecting optimal proxy (max over k of UniformK).
	BestK montecarlo.Estimate
	// MeanBestLevel is the average optimal concurrency level k*.
	MeanBestLevel montecarlo.Estimate
	// AvgActive is the mean number of simultaneously active senders
	// under carrier sense.
	AvgActive montecarlo.Estimate
}

// Efficiency returns CS as a fraction of the best uniform-k policy.
func (a MultiAverages) Efficiency() float64 {
	if a.BestK.Mean == 0 {
		return 0
	}
	return a.CS.Mean / a.BestK.Mean
}

// ExposedHeadroom returns the fractional gain a perfect concurrency
// scheduler would add over carrier sense — the quantity footnote 18
// expects to grow with n.
func (a MultiAverages) ExposedHeadroom() float64 {
	if a.CS.Mean == 0 {
		return 0
	}
	return a.BestK.Mean/a.CS.Mean - 1
}

// Indices into the multi kernel's sample vector.
const (
	idxMultiTDMA = iota
	idxMultiConc
	idxMultiCS
	idxMultiBestK
	idxMultiBestLevel
	idxMultiActive
	nMultiIdx
)

// evalOne evaluates one sampled configuration into out using the
// given scratch.
func (mm *MultiModel) evalOne(src *rng.Source, sc *multiScratch, pThresh float64, out []float64) {
	n := mm.p.NPairs
	mm.sampleInto(src, sc)
	all := uint64(1<<uint(n)) - 1
	// TDMA.
	tdma := 0.0
	for i := 0; i < n; i++ {
		tdma += mm.pairCapacity(sc, i, 1<<uint(i)) / float64(n)
	}
	out[idxMultiTDMA] = tdma / float64(n)
	// Full concurrency.
	conc := 0.0
	for i := 0; i < n; i++ {
		conc += mm.pairCapacity(sc, i, all)
	}
	out[idxMultiConc] = conc / float64(n)
	// Carrier sense.
	out[idxMultiCS] = mm.csThroughput(src, sc, pThresh)
	// Active count under CS (one extra round, cheap).
	active := mm.csRound(src, sc, pThresh)
	out[idxMultiActive] = float64(popcount(active))
	// Best uniform-k.
	best, bestK := 0.0, 1
	for k := 1; k <= n; k++ {
		v := mm.uniformKThroughput(src, sc, k)
		if v > best {
			best, bestK = v, k
		}
	}
	out[idxMultiBestK] = best
	out[idxMultiBestLevel] = float64(bestK)
}

// multiBatch builds the n-pair policy-vector integrand behind
// EstimateMulti; the core/multi kernel rebuilds it on workers. One
// function is shared by every concurrently evaluated shard, so each
// call takes a scratch from a pool and reuses it across its samples:
// the per-sample slice churn (configuration rows, DCF round
// permutations, subset buffers) stays out of the hot path, and the
// sampled path, which calls it once per sample, does not allocate a
// scratch per sample either. evalOne overwrites every scratch slot it
// reads, so no state carries from one call to the next.
func (mm *MultiModel) multiBatch() montecarlo.BatchEvalFunc {
	pThresh := mm.model.ThresholdPower(mm.p.DThresh)
	pool := sync.Pool{New: func() any { return mm.newScratch() }}
	return func(src *rng.Source, count int, out []float64) {
		sc := pool.Get().(*multiScratch)
		for i := 0; i < count; i++ {
			mm.evalOne(src, sc, pThresh, out[i*nMultiIdx:(i+1)*nMultiIdx:(i+1)*nMultiIdx])
		}
		pool.Put(sc)
	}
}

// EstimateMulti runs the n-pair Monte Carlo through the executor of
// ctx's plan (in-process by default, a worker fleet under `cs run
// -workers`).
func (mm *MultiModel) EstimateMulti(ctx context.Context, seed uint64, nSamples int) MultiAverages {
	n := mm.p.NPairs
	est := montecarlo.KernelMeanVec(ctx, KernelMulti, multiParamsWire{
		Env:        envSpecOf(mm.p.Env),
		NPairs:     mm.p.NPairs,
		AreaRadius: mm.p.AreaRadius,
		Rmax:       mm.p.Rmax,
		DThresh:    mm.p.DThresh,
		Rounds:     mm.p.Rounds,
	}, seed, nSamples, nMultiIdx)
	return MultiAverages{
		NPairs:        n,
		TDMA:          est[idxMultiTDMA],
		Conc:          est[idxMultiConc],
		CS:            est[idxMultiCS],
		BestK:         est[idxMultiBestK],
		MeanBestLevel: est[idxMultiBestLevel],
		AvgActive:     est[idxMultiActive],
	}
}

func popcount(x uint64) int { return bits.OnesCount64(x) }
