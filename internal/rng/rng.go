// Package rng provides deterministic random variate generation for the
// carrier sense model and the packet-level simulator.
//
// Every consumer of randomness in this repository takes an explicit
// *rng.Source seeded by the caller, so that experiments are exactly
// reproducible run to run and streams can be split per node or per
// shard.
//
// Streams that different goroutines draw from at the same time come
// from one SplitN call, not from successive Splits. A Source is small,
// so successively split Sources sit side by side in memory, several to
// a cache line; every draw writes the generator state, and two cores
// drawing from neighbours would keep stealing the line from each other
// (false sharing). SplitN lays its children out at least a cache line
// pair apart.
//
// The distributions here are the ones the paper's propagation model
// needs (§2 and the appendix): Gaussian (for dB-domain shadowing),
// lognormal (linear-domain shadowing), and the exponential power fade
// of a Rayleigh-faded signal.
package rng

import (
	"cmp"
	"math"
	"math/rand/v2"
	"slices"
	"unsafe"
)

// Source is a deterministic random variate generator. It holds a PCG
// generator from math/rand/v2 and adds the distributions used by the
// propagation and simulation packages.
//
// A Source normally draws straight from its PCG generator. A Source
// built with WithUniforms instead derives every variate from a caller
// supplied scalar uniform stream via inverse transforms (Normal through
// NormalQuantile, one uniform per variate). That is the seam the
// variance-reduction samplers in internal/sampling use: recording,
// mirroring (u → 1−u), or stratifying the uniforms transforms every
// downstream variate coherently, without the integrands knowing.
//
// SkipNormal advances either kind of Source exactly as Normal would,
// without the transform. A consumer with a fixed variate layout uses
// it for the variates it does not read, so the variates it does read
// come from the same stream positions as in the full layout.
type Source struct {
	// pcg is the generator state, the only field a draw writes. It is
	// held by value so a Source is one allocation, and r draws from it.
	pcg rand.PCG
	r   rand.Rand
	// uni, when non-nil, supplies every uniform; all variates then go
	// through inverse transforms so they are monotone in the uniforms.
	uni func() float64
}

// New returns a Source seeded with the given 64-bit seed. Two Sources
// with the same seed produce identical streams.
func New(seed uint64) *Source {
	s := new(Source)
	s.seed(seed, seed^0x9e3779b97f4a7c15)
	return s
}

// seed sets s to a fresh PCG stream. s must not move afterwards: r
// points at s.pcg.
func (s *Source) seed(hi, lo uint64) {
	s.pcg.Seed(hi, lo)
	s.r = *rand.New(&s.pcg)
}

// WithUniforms returns a Source that derives every variate from the
// given uniform stream via inverse transforms. next must yield values
// in [0, 1). A stratified or low-discrepancy uniform stream thus
// carries its structure through to the variates, which is what makes
// the transformation useful for variance reduction.
func WithUniforms(next func() float64) *Source {
	return &Source{uni: next}
}

// Split derives a new independent Source from this one. The derived
// stream is a deterministic function of the parent's state, so a fixed
// sequence of Split calls is reproducible.
func (s *Source) Split() *Source {
	child := new(Source)
	s.splitInto(child)
	return child
}

// splitInto seeds child from the next two parent words, in order.
func (s *Source) splitInto(child *Source) {
	hi := s.Uint64()
	lo := s.Uint64()
	child.seed(hi, lo)
}

// slabStride is the distance between SplitN's children: two 64-byte
// cache lines, so neither a shared line nor the adjacent-line
// prefetcher couples two children's generator state.
const slabStride = 128

// slabSource pads a Source to slabStride bytes.
type slabSource struct {
	Source
	_ [slabStride - unsafe.Sizeof(Source{})]byte
}

// SplitN returns the same n streams as n successive Split calls, laid
// out in one slab with the children slabStride bytes apart. Use it for
// streams that run concurrently, such as the shards of a Monte Carlo
// plan: with adjacent Splits, every draw on one core would invalidate
// the cache line a neighbouring stream's core is drawing from.
func (s *Source) SplitN(n int) []*Source {
	slab := make([]slabSource, n)
	out := make([]*Source, n)
	for i := range slab {
		s.splitInto(&slab[i].Source)
		out[i] = &slab[i].Source
	}
	return out
}

// SplitAt returns the streams that SplitN(n) returns at the given
// distinct, non-negative positions, for any n above the largest, in the
// order the positions are given and laid out as SplitN lays them out.
// It advances s past the largest position's Split, skipping the words
// of the Splits in between.
func (s *Source) SplitAt(positions []int) []*Source {
	order := make([]int, len(positions))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int { return cmp.Compare(positions[a], positions[b]) })
	slab := make([]slabSource, len(positions))
	out := make([]*Source, len(positions))
	next := 0
	for _, i := range order {
		for ; next < positions[i]; next++ {
			s.Uint64()
			s.Uint64()
		}
		s.splitInto(&slab[i].Source)
		out[i] = &slab[i].Source
		next++
	}
	return out
}

// Float64 returns a uniform variate in [0, 1).
func (s *Source) Float64() float64 {
	if s.uni != nil {
		return s.uni()
	}
	return s.r.Float64()
}

// hookedUint64 composes a 64-bit value from two hook uniforms (a
// float64 uniform carries 53 bits; two cover the word). Only used to
// seed derived generators — kernels draw distributions, not raw words.
func (s *Source) hookedUint64() uint64 {
	hi := uint64(s.uni() * (1 << 32))
	lo := uint64(s.uni() * (1 << 32))
	return hi<<32 | lo
}

// Uint64 returns a uniform 64-bit value.
func (s *Source) Uint64() uint64 {
	if s.uni != nil {
		return s.hookedUint64()
	}
	return s.r.Uint64()
}

// IntN returns a uniform integer in [0, n).
func (s *Source) IntN(n int) int {
	if s.uni != nil {
		if n <= 0 {
			panic("rng: IntN with n <= 0")
		}
		i := int(s.uni() * float64(n))
		if i >= n { // u == 1-ulp rounding guard
			i = n - 1
		}
		return i
	}
	return s.r.IntN(n)
}

// Uniform returns a uniform variate in [lo, hi).
func (s *Source) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*s.Float64()
}

// Normal returns a Gaussian variate with the given mean and standard
// deviation. Plain sources use the ziggurat sampler; uniform-hooked
// sources use the inverse CDF (one uniform per variate, monotone in
// it), clamped away from 0 and 1 so a mirrored stream cannot produce
// an infinite variate.
func (s *Source) Normal(mean, stddev float64) float64 {
	if s.uni != nil {
		u := s.uni()
		if u < minQuantileU {
			u = minQuantileU
		} else if u > maxQuantileU {
			u = maxQuantileU
		}
		return mean + stddev*NormalQuantile(u)
	}
	return mean + stddev*s.r.NormFloat64()
}

// SkipNormal consumes the variate Normal would draw and discards it,
// leaving the source exactly where Normal leaves it: a plain source
// runs the ziggurat, whose rejection steps consume a varying number
// of words, and a uniform-hooked source takes one uniform without
// paying for its inverse transform.
func (s *Source) SkipNormal() {
	if s.uni != nil {
		s.uni()
		return
	}
	s.r.NormFloat64()
}

// Quantile clamp bounds: the open unit interval minus one double ulp on
// each side, keeping inverse-transformed variates finite.
const (
	minQuantileU = 0x1p-53
	maxQuantileU = 1 - 0x1p-53
)

// ln10Over10 converts a dB exponent to a natural one: 10^(x/10) =
// e^(x·ln10/10). math.Exp is substantially cheaper than math.Pow on
// the Monte Carlo hot path, which draws five of these per sample.
const ln10Over10 = math.Ln10 / 10

// LognormalDB returns a linear power factor whose dB value is Gaussian
// with zero mean and standard deviation sigmaDB. This is the paper's
// lognormal shadowing variable L_sigma (§2): median 1, so distance
// alone sets the median received power.
func (s *Source) LognormalDB(sigmaDB float64) float64 {
	if sigmaDB == 0 {
		return 1
	}
	return math.Exp(ln10Over10 * s.Normal(0, sigmaDB))
}

// Exp returns an exponential variate with the given mean. The power of
// a Rayleigh-faded signal is exponentially distributed, so this is the
// narrowband "fast fading" power factor with mean 1 when mean == 1.
// Already an inverse transform, so it is monotone under a uniform hook.
func (s *Source) Exp(mean float64) float64 {
	return -mean * math.Log(1-s.Float64())
}

// Shuffle randomly permutes the first n elements using swap.
// Uniform-hooked sources run their own Fisher-Yates over hooked IntN
// draws (one uniform per swap), keeping the permutation a pure
// function of the uniform stream.
func (s *Source) Shuffle(n int, swap func(i, j int)) {
	if s.uni != nil {
		for i := n - 1; i > 0; i-- {
			j := s.IntN(i + 1)
			swap(i, j)
		}
		return
	}
	s.r.Shuffle(n, swap)
}

// NormalCDF returns the standard normal cumulative distribution
// function Φ(x). It backs the closed-form shadowing probabilities in
// §3.4 (e.g. the chance an interferer "appears beyond" the threshold).
func NormalCDF(x float64) float64 {
	return 0.5 * math.Erfc(-x/math.Sqrt2)
}

// NormalQuantile returns Φ⁻¹(p) for p in (0, 1): Wichura's AS241
// (PPND16; "Algorithm AS 241: The percentage points of the normal
// distribution", Applied Statistics 37, 1988), about 1e-16 relative
// accuracy. It is three rational functions of degree 7: one in
// (p − ½)² for |p − ½| ≤ 0.425, and two in √(−log r) for the tails,
// where r is the smaller of p and 1 − p. A lower-tail p goes into the
// logarithm as it is, so the quantile keeps its relative precision
// down to the smallest p a sampler feeds it; forming 2p − 1 (as
// math.Erfinv would need) would lose it. The result is exactly
// antisymmetric: NormalQuantile(1−p) = −NormalQuantile(p) whenever
// 1 − p is exact. p = 0 and p = 1 give −Inf and +Inf; any other p
// outside (0, 1), and NaN, give NaN.
func NormalQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		switch {
		case p == 0:
			return math.Inf(-1)
		case p == 1:
			return math.Inf(1)
		}
		return math.NaN()
	}
	q := p - 0.5
	if math.Abs(q) <= 0.425 {
		num, den := horner2(&as241A, &as241B, 0.180625-q*q)
		// AS241's own order, (q·num)/den: q·(num/den) rounds
		// differently, with about 40% more one-ulp drops near p = 0.3.
		return q * num / den
	}
	r := p
	if q > 0 {
		r = 1 - p
	}
	r = math.Sqrt(-math.Log(r))
	var num, den float64
	if r <= 5 {
		num, den = horner2(&as241C, &as241D, r-1.6)
	} else {
		num, den = horner2(&as241E, &as241F, r-5)
	}
	if q < 0 {
		return -num / den
	}
	return num / den
}

// horner2 evaluates the degree-7 polynomials a and b at r by
// Horner's rule.
func horner2(a, b *[8]float64, r float64) (float64, float64) {
	x := ((((((a[7]*r+a[6])*r+a[5])*r+a[4])*r+a[3])*r+a[2])*r+a[1])*r + a[0]
	y := ((((((b[7]*r+b[6])*r+b[5])*r+b[4])*r+b[3])*r+b[2])*r+b[1])*r + b[0]
	return x, y
}

// The AS241 coefficients in ascending powers: as241A/as241B for the
// central region, as241C/as241D for tails with √(−log r) ≤ 5 (r down
// to about 1.4e-11), as241E/as241F beyond.
var (
	as241A = [8]float64{
		3.3871328727963666080e0, 1.3314166789178437745e2,
		1.9715909503065514427e3, 1.3731693765509461125e4,
		4.5921953931549871457e4, 6.7265770927008700853e4,
		3.3430575583588128105e4, 2.5090809287301226727e3,
	}
	as241B = [8]float64{
		1, 4.2313330701600911252e1,
		6.8718700749205790830e2, 5.3941960214247511077e3,
		2.1213794301586595867e4, 3.9307895800092710610e4,
		2.8729085735721942674e4, 5.2264952788528545610e3,
	}
	as241C = [8]float64{
		1.42343711074968357734e0, 4.63033784615654529590e0,
		5.76949722146069140550e0, 3.64784832476320460504e0,
		1.27045825245236838258e0, 2.41780725177450611770e-1,
		2.27238449892691845833e-2, 7.74545014278341407640e-4,
	}
	as241D = [8]float64{
		1, 2.05319162663775882187e0,
		1.67638483018380384940e0, 6.89767334985100004550e-1,
		1.48103976427480074590e-1, 1.51986665636164571966e-2,
		5.47593808499534494600e-4, 1.05075007164441684324e-9,
	}
	as241E = [8]float64{
		6.65790464350110377720e0, 5.46378491116411436990e0,
		1.78482653991729133580e0, 2.96560571828504891230e-1,
		2.65321895265761230930e-2, 1.24266094738807843860e-3,
		2.71155556874348757815e-5, 2.01033439929228813265e-7,
	}
	as241F = [8]float64{
		1, 5.99832206555887937690e-1,
		1.36929880922735805310e-1, 1.48753612908506148525e-2,
		7.86869131145613259100e-4, 1.84631831751005468180e-5,
		1.42151175831644588870e-7, 2.04426310338993978564e-15,
	}
)
