package sampling

// The sampling chain: the one place a run's executor decorators are
// assembled. From the base executor outwards it holds the convergence
// driver (with a RelErr target) and the auto-scheduler (auto). The
// scheduler sits outside the driver so a driven point's rounds all
// share one resolved strategy: it is stamped on the full request
// before the driver splits it into ranged rounds.

import (
	"fmt"

	"carriersense/internal/montecarlo"
)

// Chain is one run's assembled sampling chain.
type Chain struct {
	exec   montecarlo.Executor
	driver *Driver
	auto   *AutoScheduler
}

// NewChain checks a run's sampling options and assembles the chain
// over base (nil = montecarlo.Local). relErr > 0 adds the convergence
// driver, capped per point at maxSamples (0 = each request's own
// budget). The run names sampler on its plan (montecarlo.WithPlan), so
// that its requests carry it into the chain.
func NewChain(base montecarlo.Executor, sampler string, relErr float64, maxSamples int) (*Chain, error) {
	if err := Validate(sampler); err != nil {
		return nil, err
	}
	if relErr < 0 {
		return nil, fmt.Errorf("sampling: -relerr must be > 0, got %g", relErr)
	}
	if maxSamples < 0 {
		return nil, fmt.Errorf("sampling: -max-samples must be >= 1, got %d", maxSamples)
	}
	if maxSamples > 0 && relErr == 0 {
		return nil, fmt.Errorf("sampling: -max-samples requires -relerr")
	}
	if base == nil {
		base = montecarlo.Local{}
	}
	c := &Chain{exec: base}
	if relErr > 0 {
		d, err := NewDriver(base, DriverOptions{RelErr: relErr, MaxSamples: maxSamples})
		if err != nil {
			return nil, err
		}
		c.driver, c.exec = d, d
	}
	if sampler == Auto {
		// Pilot probes bypass the driver — a pilot is a fixed-budget
		// measurement, not something to drive to convergence — and go
		// to base, so a fleet or cache still serves them.
		c.auto = NewAuto(c.exec, base, AutoOptions{Target: relErr})
		c.exec = c.auto
	}
	return c, nil
}

// Executor returns the outermost executor of the chain.
func (c *Chain) Executor() montecarlo.Executor { return c.exec }

// Driver returns the convergence driver, or nil without a RelErr
// target.
func (c *Chain) Driver() *Driver { return c.driver }

// Auto returns the auto-scheduler, or nil unless the sampler is auto.
func (c *Chain) Auto() *AutoScheduler { return c.auto }

// PilotSpent returns the samples the auto-scheduler's candidate
// probes have evaluated (0 unless the sampler is auto).
func (c *Chain) PilotSpent() int {
	if c.auto == nil {
		return 0
	}
	return c.auto.PilotSpent()
}
