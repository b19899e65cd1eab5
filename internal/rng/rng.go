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
// lognormal (linear-domain shadowing), Rayleigh and Rician (multipath
// fading amplitude), and the exponential power fade that Rayleigh
// amplitude induces.
package rng

import (
	"math"
	"math/rand/v2"
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

// Rayleigh returns a Rayleigh-distributed amplitude with scale sigma.
// The appendix derives this as the amplitude of a zero-mean bivariate
// Gaussian signal vector (no line of sight).
func (s *Source) Rayleigh(sigma float64) float64 {
	return sigma * math.Sqrt(-2*math.Log(1-s.Float64()))
}

// Rician returns a Rician-distributed amplitude with line-of-sight
// (specular) amplitude v and diffuse scale sigma. The appendix derives
// this as the amplitude of a bivariate Gaussian offset from the origin
// (line of sight present). v = 0 reduces to Rayleigh.
func (s *Source) Rician(v, sigma float64) float64 {
	x := s.Normal(v, sigma)
	y := s.Normal(0, sigma)
	return math.Hypot(x, y)
}

// RicianPowerK returns a unit-mean linear power factor for Rician
// fading with K-factor k (ratio of specular to diffuse power). k = 0
// is Rayleigh (unit-mean exponential); large k approaches no fading.
func (s *Source) RicianPowerK(k float64) float64 {
	if k <= 0 {
		return s.Exp(1)
	}
	// Total mean power v^2 + 2sigma^2 = 1 with K = v^2 / (2 sigma^2).
	sigma := math.Sqrt(1 / (2 * (k + 1)))
	v := math.Sqrt(k / (k + 1))
	a := s.Rician(v, sigma)
	return a * a
}

// WidebandFadePower returns a unit-mean power factor representing a
// wideband channel that averages nsub independent Rayleigh subchannels.
// The paper (§2, appendix) argues wideband modulations largely average
// fading away, leaving "the equivalent of a few dB variation"; this
// models that residual. nsub <= 1 degenerates to narrowband Rayleigh.
func (s *Source) WidebandFadePower(nsub int) float64 {
	if nsub <= 1 {
		return s.Exp(1)
	}
	sum := 0.0
	for i := 0; i < nsub; i++ {
		sum += s.Exp(1)
	}
	return sum / float64(nsub)
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

// NormalQuantile returns Φ⁻¹(p) for p in (0, 1), using the
// Beasley-Springer-Moro rational approximation refined by one
// Newton step against NormalCDF. Accuracy is better than 1e-9 across
// (1e-12, 1-1e-12), ample for threshold and starvation calculations.
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
	x := bsm(p)
	// One Newton refinement: x -= (Φ(x)-p)/φ(x).
	pdf := math.Exp(-x*x/2) / sqrt2Pi
	if pdf > 0 {
		x -= (NormalCDF(x) - p) / pdf
	}
	return x
}

// sqrt2Pi is √(2π), the normal density's normalizer.
var sqrt2Pi = math.Sqrt(2 * math.Pi)

// The Beasley-Springer-Moro coefficients: bsmA/bsmB are the central
// rational approximation's numerator and denominator, bsmC the tail
// polynomial in log(-log r). They live at package level so that a
// call does not rebuild them.
var (
	bsmA = [4]float64{2.50662823884, -18.61500062529, 41.39119773534, -25.44106049637}
	bsmB = [4]float64{-8.47351093090, 23.08336743743, -21.06224101826, 3.13082909833}
	bsmC = [9]float64{
		0.3374754822726147, 0.9761690190917186, 0.1607979714918209,
		0.0276438810333863, 0.0038405729373609, 0.0003951896511919,
		0.0000321767881768, 0.0000002888167364, 0.0000003960315187,
	}
)

// bsm is the Beasley-Springer-Moro approximation to the standard
// normal quantile.
func bsm(p float64) float64 {
	a, b, c := &bsmA, &bsmB, &bsmC
	y := p - 0.5
	if math.Abs(y) < 0.42 {
		r := y * y
		num := y * (((a[3]*r+a[2])*r+a[1])*r + a[0])
		den := (((b[3]*r+b[2])*r+b[1])*r+b[0])*r + 1
		return num / den
	}
	r := p
	if y > 0 {
		r = 1 - p
	}
	r = math.Log(-math.Log(r))
	x := c[0]
	pow := 1.0
	for i := 1; i < 9; i++ {
		pow *= r
		x += c[i] * pow
	}
	if y < 0 {
		x = -x
	}
	return x
}
