package sampling

// The `cv` strategy: control variates over the kernels' registered
// σ = 0 quadrature twins (montecarlo/control.go holds the mechanism,
// internal/core the twins). As a *sampler* cv is the identity — raw
// shard streams, one observation per sample — because the variance
// reduction happens per sample inside the shard evaluator, driven by
// the (β, μ) coefficients the request carries in Request.Control.
// What this file adds is the coordinator-side half: the
// ControlVariates executor decorator that stamps those coefficients
// onto cv requests before they reach the convergence driver, the
// fleet, or the cache.
//
// The decorator sits *outside* the driver in the engine's chain, so a
// driven point's rounds all share one pilot β: the pilot runs once per
// (kernel, params, seed), its spec rides along every ranged round
// request, and the merged accumulators are states of one consistent
// adjusted variable.

import (
	"context"
	"fmt"
	"sync"

	"carriersense/internal/montecarlo"
	"carriersense/internal/rng"
)

// CV is the control-variate strategy name.
const CV = "cv"

func init() {
	montecarlo.RegisterSampler(CV, cvSampler{})
}

// cvSampler is stream-wise identical to plain; the name exists so the
// strategy is part of the request identity (wire, cache key) and so
// reports attribute the spend to cv. The adjustment itself comes from
// Request.Control.
type cvSampler struct{}

func (cvSampler) Group() int { return 1 }

func (cvSampler) Stream(n int, src *rng.Source) montecarlo.SampleStream {
	return rawSampleStream{src: src}
}

type rawSampleStream struct{ src *rng.Source }

func (r rawSampleStream) Next() *rng.Source { return r.src }

// PilotSamples is the control-coefficient pilot budget: a quarter
// shard of serial samples. β only needs a few percent accuracy — the
// residual variance is quadratic around the optimum, so a relative
// error ε in β costs only ~ε² of the reduction — and the clamp in
// montecarlo.PilotControl bounds the damage of a noisy ratio. Keeping
// the pilot sub-shard matters for the savings ledger: on the exact
// (σ = 0) lanes a cv point converges at the driver's probe round, and
// the pilot is most of what it pays.
const PilotSamples = montecarlo.ShardSize / 4

// ControlVariates is the executor decorator that equips cv-sampled
// requests with pilot-estimated control coefficients. Requests under
// any other sampler — and ranged or already-equipped cv requests —
// pass through untouched. Safe for concurrent use.
type ControlVariates struct {
	inner montecarlo.Executor

	mu    sync.Mutex
	specs map[string]*montecarlo.ControlSpec
	spent int
}

// NewControlVariates wraps inner (nil = montecarlo.Local) in the
// cv-equipping decorator.
func NewControlVariates(inner montecarlo.Executor) *ControlVariates {
	if inner == nil {
		inner = montecarlo.Local{}
	}
	return &ControlVariates{inner: inner, specs: map[string]*montecarlo.ControlSpec{}}
}

// ControlFor returns the memoized control spec for a request, running
// the pilot on first sight of its (kernel, params, seed). The
// spec is a pure function of that key, so every coordinator — and a
// rerun hitting the cache — derives bit-identical coefficients.
func (c *ControlVariates) ControlFor(req montecarlo.Request) (*montecarlo.ControlSpec, error) {
	key := fmt.Sprintf("%s\x00%s\x00%d", req.Kernel, req.Params, req.Seed)
	c.mu.Lock()
	spec, ok := c.specs[key]
	c.mu.Unlock()
	if ok {
		return spec, nil
	}
	spec, err := montecarlo.PilotControl(req, PilotSamples)
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if prev, raced := c.specs[key]; raced {
		spec = prev
	} else {
		c.specs[key] = spec
		c.spent += PilotSamples
	}
	c.mu.Unlock()
	return spec, nil
}

// PilotSpent returns the total samples the pilots have evaluated —
// the honesty term scenarios fold into their sampling spend.
func (c *ControlVariates) PilotSpent() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.spent
}

// EstimateVec implements montecarlo.Executor.
func (c *ControlVariates) EstimateVec(ctx context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	if req.Sampler != CV || req.Control != nil || req.FirstShard > 0 {
		return c.inner.EstimateVec(ctx, req)
	}
	if !montecarlo.HasControlTwin(req.Kernel) {
		// No twin: cv degrades to plain sampling under the cv identity.
		return c.inner.EstimateVec(ctx, req)
	}
	spec, err := c.ControlFor(req)
	if err != nil {
		return nil, err
	}
	req.Control = spec
	return c.inner.EstimateVec(ctx, req)
}
