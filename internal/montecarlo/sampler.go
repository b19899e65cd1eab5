package montecarlo

// The sampler seam: a Sampler rewrites how one shard's samples are
// drawn (and, for block strategies, how they are folded into the
// accumulator) without the integrand knowing. Strategies are
// registered by name — the name travels in Request.Sampler, through
// the dist wire protocol and the cache key — so a sampler-transformed
// estimation reproduces bit-identically on any executor, exactly like
// the kernels themselves.
//
// The registry mirrors the kernel registry: montecarlo registers the
// degenerate "plain" strategy (raw shard streams, one observation per
// sample); internal/sampling registers the variance-reduction
// strategies (stratified, sobol) in its init. Both the
// coordinator and `cs serve` workers link internal/sampling via the
// engine, so a named sampler rebuilds identically on either side. A
// run names its sampler once, on its plan (WithPlan), and
// KernelMeanVec stamps that name into every request the run issues.

import (
	"fmt"
	"sort"
	"sync"

	"carriersense/internal/rng"
)

// SamplerPlain is the built-in identity strategy: every sample draws
// directly from the shard's raw stream and contributes one accumulator
// observation. An empty Request.Sampler means SamplerPlain.
const SamplerPlain = "plain"

// SampleStream yields the draw source for each sample of one shard,
// in sample order. Next is called exactly once per sample; the
// returned source must be used for all of that sample's variates.
// Streams are shard-local and need not be safe for concurrent use.
type SampleStream interface {
	Next() *rng.Source
}

// Sampler is one named sampling strategy. Implementations must be
// stateless (safe for concurrent Stream calls from the shard pool);
// all per-shard state lives in the SampleStream.
type Sampler interface {
	// Group returns how many consecutive samples fold into one
	// accumulator observation (their mean): 1 for independent
	// samples, 64 for a stratified or Sobol block. Group must divide
	// ShardSize so groups never straddle shard boundaries.
	Group() int
	// Stream starts one shard evaluation of n samples drawing from
	// src, the shard's deterministic raw stream.
	Stream(n int, src *rng.Source) SampleStream
}

var (
	samplerMu sync.RWMutex
	samplers  = map[string]Sampler{}
)

// RegisterSampler adds a named strategy to the global registry.
// Registration happens in init() (this package registers plain,
// internal/sampling the rest); duplicates, empty names, and group
// sizes that do not divide ShardSize panic so a broken catalog fails
// loudly at startup.
func RegisterSampler(name string, s Sampler) {
	if name == "" || s == nil {
		panic("montecarlo: invalid sampler registration")
	}
	if g := s.Group(); g < 1 || ShardSize%g != 0 {
		panic(fmt.Sprintf("montecarlo: sampler %q group %d must divide ShardSize %d", name, s.Group(), ShardSize))
	}
	samplerMu.Lock()
	defer samplerMu.Unlock()
	if _, dup := samplers[name]; dup {
		panic(fmt.Sprintf("montecarlo: duplicate sampler %q", name))
	}
	samplers[name] = s
}

// SamplerNames returns every registered sampler name, sorted.
func SamplerNames() []string {
	samplerMu.RLock()
	defer samplerMu.RUnlock()
	out := make([]string, 0, len(samplers))
	for name := range samplers {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// HasSampler reports whether name is registered ("" counts as plain).
func HasSampler(name string) bool {
	if name == "" {
		return true
	}
	samplerMu.RLock()
	defer samplerMu.RUnlock()
	_, ok := samplers[name]
	return ok
}

// SamplerGroup returns the observation group size of a registered
// sampler ("" = plain). The convergence driver sizes its sub-shard
// probe round from it: a probe must hold enough whole groups for an
// honest standard-error estimate.
func SamplerGroup(name string) (int, error) {
	s, err := lookupSampler(name)
	if err != nil {
		return 0, err
	}
	return s.Group(), nil
}

// lookupSampler resolves a sampler name; "" resolves to plain.
func lookupSampler(name string) (Sampler, error) {
	if name == "" {
		name = SamplerPlain
	}
	samplerMu.RLock()
	s, ok := samplers[name]
	samplerMu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("montecarlo: unknown sampler %q (registered: %v)", name, SamplerNames())
	}
	return s, nil
}

// plainSampler is the identity strategy.
type plainSampler struct{}

func (plainSampler) Group() int { return 1 }

func (plainSampler) Stream(n int, src *rng.Source) SampleStream { return rawStream{src: src} }

type rawStream struct{ src *rng.Source }

func (r rawStream) Next() *rng.Source { return r.src }

func init() {
	RegisterSampler(SamplerPlain, plainSampler{})
}
