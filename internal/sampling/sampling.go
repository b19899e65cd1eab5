// Package sampling is the adaptive sampling subsystem: named
// variance-reduction sampler strategies plus a convergence driver that
// steers per-point Monte Carlo budgets to a target relative error.
//
// The paper's carrier-sense results are Monte Carlo averages over
// shadowing and placement draws; after the fused-kernel work the
// dominant cost is no longer per-sample math but *how many* samples
// each point needs. This package attacks that on two axes:
//
//   - Sampler strategies change what each sample costs in variance:
//     `stratified` (this file) pins each sample's primary uniform —
//     the receiver's radial position draw — to its own stratum of the
//     shard, removing the between-strata variance of that dimension;
//     `sobol` (qmc.go) replaces the whole uniform stream with
//     scrambled low-discrepancy blocks. `plain` is montecarlo's built-in
//     identity strategy, and `auto` (auto.go) pilots the others per
//     kernel and runs the winner.
//   - The convergence driver (driver.go) changes how many samples each
//     estimation point buys: budgets grow geometrically, in whole
//     shards, until the primary component's relative standard error
//     meets the target — so easy points stop early and heavy-tailed
//     points keep going.
//
// NewChain (chain.go) stacks the driver and the auto decorator over a
// run's base executor; every caller builds its chain there.
//
// Determinism contract: a strategy is a pure per-shard stream
// transform. All state lives in the per-shard SampleStream, sample
// order within a shard is sequential, and groups (stratified and
// Sobol blocks) never straddle shard boundaries because the group
// size divides montecarlo.ShardSize. The sampler name travels in
// montecarlo.Request — over the dist wire protocol and into the cache
// key — so a named strategy reproduces bit-identically local, on any
// `cs serve` fleet, and through `internal/cache`, at any parallelism.
package sampling

import (
	"fmt"
	"sort"

	"carriersense/internal/montecarlo"
	"carriersense/internal/rng"
)

// Strategy names registered by this package (montecarlo itself
// registers Plain, the identity).
const (
	Plain      = montecarlo.SamplerPlain
	Stratified = "stratified"
)

func init() {
	montecarlo.RegisterSampler(Stratified, stratifiedSampler{})
}

// Validate checks a run's sampler name: a registered strategy ("" is
// plain) or the virtual Auto.
func Validate(name string) error {
	if name == Auto || montecarlo.HasSampler(name) {
		return nil
	}
	names := append(montecarlo.SamplerNames(), Auto)
	sort.Strings(names)
	return fmt.Errorf("sampling: unknown sampler %q (want one of %v)", name, names)
}

// StratifiedBlock is the stratification cycle length: consecutive
// blocks of this many samples each cover all StratifiedBlock equal
// strata of the primary dimension, and each complete block folds into
// the accumulator as one observation. The block is the unit of both
// the variance reduction and its *measurement*: block means are iid
// (every block is a complete stratification over fresh draws), so the
// tracked standard error reflects only the within-stratum variance —
// a plain Welford pass over the individual, deliberately
// non-identically-distributed samples would still show the
// between-strata spread the strategy removed, and the convergence
// driver would never see the improvement. 64 strata capture
// essentially all of a smooth dimension's between-strata variance
// (the residual shrinks as 1/B²) while leaving 64 observations per
// shard for the error estimate.
const StratifiedBlock = 64

// stratifiedSampler stratifies the primary dimension in 64-sample
// blocks: the first uniform of the p-th sample of each block is
// remapped from u to (p+u)/64, pinning it inside the p-th stratum.
// For the model's kernels the first uniform is the receiver's radial
// position draw (geometry.UniformInDisc draws radius as R·sqrt(u)
// first), the dominant variance axis of every capacity integrand.
// All later uniforms pass through untransformed (but, as with every
// uniform-hooked source, variates derive from them by inverse
// transforms). A trailing partial block — possible only in a plan's
// partial last shard — falls back to unstratified draws so its
// observation stays an unbiased mean rather than covering only the
// low strata.
type stratifiedSampler struct{}

func (stratifiedSampler) Group() int { return StratifiedBlock }

func (stratifiedSampler) Stream(n int, src *rng.Source) montecarlo.SampleStream {
	st := &stratifiedStream{raw: src, full: n - n%StratifiedBlock, i: -1}
	st.derived = rng.WithUniforms(func() float64 {
		u := st.raw.Float64()
		if st.first {
			st.first = false
			if st.i < st.full {
				return (float64(st.i%StratifiedBlock) + u) / StratifiedBlock
			}
		}
		return u
	})
	return st
}

// stratifiedStream carries the per-shard sample counter.
type stratifiedStream struct {
	raw     *rng.Source
	full    int // samples covered by complete blocks; the tail is unstratified
	i       int
	first   bool
	derived *rng.Source
}

func (st *stratifiedStream) Next() *rng.Source {
	st.i++
	st.first = true
	return st.derived
}
