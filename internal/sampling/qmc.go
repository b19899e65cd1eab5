package sampling

// The quasi-Monte Carlo strategy `sobol`: scrambled Sobol blocks
// replace the iid uniform stream under the same rng.WithUniforms hook
// the stratified strategy uses — kernels are untouched, and every
// variate still derives from the points by inverse transforms.
//
// The block is the randomization unit: each block draws a fresh
// digital shift per Sobol dimension from the shard's raw stream, so
// block means are iid randomized-QMC replicates and the accumulator's
// standard error is an honest convergence signal — exactly the
// stratified-sampler argument, with the whole point set
// equidistributed instead of one pinned dimension. Because the shift
// words come from the shard's own deterministic stream, a QMC shard
// remains a pure function of (seed, shard index): bit-identical
// serial, parallel, on a fleet, and through the cache.

import (
	"carriersense/internal/montecarlo"
	"carriersense/internal/rng"
)

// Sobol is the QMC strategy name.
const Sobol = "sobol"

func init() {
	montecarlo.RegisterSampler(Sobol, sobolSampler{})
}

// SobolBlock is the Sobol randomization cycle: each block of this
// many consecutive samples is one digitally-shifted Sobol point set,
// folded into the accumulator as a single observation. A power of two
// so every complete block is a full net prefix in Gray-code order.
// 64 points already drive the within-block error well below the
// Monte Carlo rate for the model's smooth disc integrands, while
// keeping enough block observations per round for a trustworthy
// error estimate — in particular the convergence driver's sub-shard
// probe round still sees 16 iid replicates, which is what lets a
// converged-at-probe point stop at a fraction of a shard. A trailing
// partial block (a plan's partial last shard) stays unbiased — the
// digital shift makes every individual point uniform — it just
// carries less of the equidistribution benefit.
const SobolBlock = 64

// sobolSampler enumerates scrambled Sobol blocks. The first
// rng.SobolMaxDim uniforms of each sample are the point's
// coordinates; a sample consuming more (no current kernel does — the
// heaviest draws 9) continues on the raw stream, deterministically.
type sobolSampler struct{}

func (sobolSampler) Group() int { return SobolBlock }

func (sobolSampler) Stream(n int, src *rng.Source) montecarlo.SampleStream {
	st := &sobolStream{raw: src, i: -1}
	st.derived = rng.WithUniforms(func() float64 {
		if st.dim < rng.SobolMaxDim {
			u := st.pts.Coord(st.dim)
			st.dim++
			return u
		}
		return st.raw.Float64()
	})
	return st
}

// sobolStream is the per-shard block state: the current point block
// and the intra-sample dimension cursor.
type sobolStream struct {
	raw     *rng.Source
	pts     *rng.Sobol
	i       int // sample index within the shard
	dim     int // next coordinate of the current point
	derived *rng.Source
}

func (st *sobolStream) Next() *rng.Source {
	st.i++
	if st.i%SobolBlock == 0 {
		// Fresh block: draw its digital shift from the raw shard
		// stream, then start at point 0 (= the shift itself).
		var shift [rng.SobolMaxDim]uint32
		for d := range shift {
			shift[d] = uint32(st.raw.Uint64() >> 32)
		}
		st.pts = rng.NewSobol(&shift)
	} else {
		st.pts.Next()
	}
	st.dim = 0
	return st.derived
}
