package sampling

// The convergence driver: a montecarlo.Executor decorator that
// replaces each fixed-budget estimation with geometrically growing
// whole-shard rounds until the primary component's relative standard
// error meets a target. The shard plan grows incrementally: because a
// shard's random stream depends only on (seed, index), round k+1 can
// be issued as a *ranged* request — Request.FirstShard pointing past
// the shards rounds 1..k already evaluated — and its accumulators
// merged after theirs, in shard order. No whole-shard sample is ever
// re-evaluated, on any executor: the in-process pool, a `cs serve`
// fleet, or the cache (where each round's delta request is its own
// cache entry, so a repeated convergence run replays the identical
// round schedule and hits on every one).
//
// Ahead of the whole-shard schedule sits one sub-shard *probe* round:
// a prefix of shard 0 sized to hold enough of the sampler's
// observation groups for an honest error estimate. A strong
// variance-reduction strategy (scrambled Sobol on a smooth lane)
// often meets the target inside that prefix, and without
// the probe every such point would pay the full one-shard floor —
// the floor, not the integrand, would set its cost. A probe that
// converges IS the point's result (a plain Samples=p request,
// bit-identical on any executor); a probe that does not converge is
// discarded wholesale and the whole-shard schedule restarts at shard
// 0 — the one deliberate re-evaluation, bounded by the probe's size,
// which keeps every later round's ranged-request incrementality
// exact.

import (
	"context"
	"fmt"
	"slices"
	"sync"

	"carriersense/internal/montecarlo"
)

// DriverOptions configure a convergence driver.
type DriverOptions struct {
	// RelErr is the target relative standard error of the estimation's
	// primary component (component 0 — every kernel in internal/core
	// orders its headline quantity first). Must be > 0.
	RelErr float64
	// MaxSamples caps the per-point budget; 0 uses each request's own
	// Samples field as the cap (the scenario's configured budget), so
	// convergence can only save samples, never exceed the plan. An
	// exact kernel (montecarlo.RegisterExactKernel) is always capped at
	// its own Samples: more samples would replay the same value.
	MaxSamples int
}

// growth is the budget multiplier per round. Rounds are cheap, since
// each evaluates only its delta. The schedule starts at one shard, so
// every round is whole shards, and whole-shard rounds are what make
// incremental growth exact: shard i's stream is identical in every
// plan that includes it, so a finished shard is never re-entered, and
// the only partial shard a driven point can see is the final one of a
// cap-sized round.
const growth = 2

// probeMinSamples floors the probe round: below this even a group-1
// sampler's error estimate is not worth acting on relative to the
// cost of re-evaluating the probe on a miss.
const probeMinSamples = 512

// probeGroups is how many observation groups a probe must hold: 16
// iid replicates put the standard error of the standard error near
// 18%, tight enough to trust a converged verdict.
const probeGroups = 16

// probeSamples sizes the probe round for a sampler, or returns 0 when
// no probe is worthwhile (a group so large the probe would approach a
// whole shard anyway, or an unknown sampler — the inner executor will
// report that properly).
func probeSamples(sampler string) int {
	g, err := montecarlo.SamplerGroup(sampler)
	if err != nil {
		return 0
	}
	p := probeGroups * g
	if p < probeMinSamples {
		p = probeMinSamples
	}
	if p >= montecarlo.ShardSize {
		return 0
	}
	return p
}

// PointReport records one driven estimation point — what a scenario's
// artifacts show per point: which sampler ran, what was spent, what
// error was achieved, and whether the target was actually reached
// (Converged false means the point hit its cap still above target).
type PointReport struct {
	Kernel    string  `json:"kernel"`
	Sampler   string  `json:"sampler"`
	Seed      uint64  `json:"seed"`
	Dim       int     `json:"dim"`
	Budget    int     `json:"budget"`  // the cap this point ran under
	Spent     int     `json:"spent"`   // samples actually evaluated
	Rounds    int     `json:"rounds"`  // growth rounds issued
	RelErr    float64 `json:"rel_err"` // achieved primary-component relative error
	Target    float64 `json:"target"`
	Converged bool    `json:"converged"`
}

// Driver is the convergence-driving executor decorator. Safe for
// concurrent use; each EstimateVec drives its own rounds.
type Driver struct {
	inner montecarlo.Executor
	opt   DriverOptions

	mu     sync.Mutex
	points []ledgerEntry
}

// ledgerEntry is one finished point with its plan position.
type ledgerEntry struct {
	pos    montecarlo.Position
	report PointReport
}

// NewDriver wraps inner (nil = montecarlo.Local) in a convergence
// driver.
func NewDriver(inner montecarlo.Executor, opt DriverOptions) (*Driver, error) {
	if opt.RelErr <= 0 {
		return nil, fmt.Errorf("sampling: driver needs a positive RelErr target, got %g", opt.RelErr)
	}
	if inner == nil {
		inner = montecarlo.Local{}
	}
	return &Driver{inner: inner, opt: opt}, nil
}

// EstimateVec implements montecarlo.Executor. Ranged requests
// (FirstShard > 0) pass straight through: they are already someone's
// delta — driving them again would double-grow.
func (d *Driver) EstimateVec(ctx context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if req.FirstShard > 0 {
		return d.inner.EstimateVec(ctx, req)
	}
	cap := d.opt.MaxSamples
	if cap <= 0 || montecarlo.ExactKernel(req.Kernel) {
		cap = req.Samples
	}
	n := montecarlo.ShardSize
	if n > cap {
		n = cap
	}
	totals := make([]montecarlo.Accumulator, req.Dim)
	report := PointReport{
		Kernel:  req.Kernel,
		Sampler: req.Sampler,
		Seed:    req.Seed,
		Dim:     req.Dim,
		Budget:  cap,
		Target:  d.opt.RelErr,
	}
	if p := probeSamples(req.Sampler); p > 0 && p < cap {
		probe := req
		probe.Samples = p
		probe.FirstShard = 0
		accs, err := d.inner.EstimateVec(ctx, probe)
		if err != nil {
			return nil, err
		}
		if len(accs) != req.Dim {
			return nil, fmt.Errorf("sampling: inner executor returned %d components, want %d", len(accs), req.Dim)
		}
		report.Rounds++
		report.Spent += p
		report.RelErr = accs[0].Estimate().RelErr()
		if report.RelErr <= d.opt.RelErr {
			report.Converged = true
			d.recordPoint(ctx, report)
			return accs, nil
		}
		// Probe missed: discard it entirely (totals stay empty) and
		// fall into the whole-shard schedule from shard 0. The probe's
		// samples are re-evaluated by round 1 — the bounded cost of
		// having tried to stop early.
	}
	prevShards := 0
	for {
		round := req
		round.Samples = n
		round.FirstShard = prevShards
		accs, err := d.inner.EstimateVec(ctx, round)
		if err != nil {
			return nil, err
		}
		if len(accs) != req.Dim {
			return nil, fmt.Errorf("sampling: inner executor returned %d components, want %d", len(accs), req.Dim)
		}
		for j := range totals {
			totals[j].Merge(accs[j])
		}
		report.Rounds++
		report.Spent += round.SampleSpan()
		report.RelErr = totals[0].Estimate().RelErr()
		if report.RelErr <= d.opt.RelErr {
			report.Converged = true
			break
		}
		if n >= cap {
			break
		}
		prevShards = montecarlo.ShardCount(n)
		next := n * growth
		if next > cap {
			next = cap
		}
		n = next
	}
	d.recordPoint(ctx, report)
	return totals, nil
}

// recordPoint appends one finished point, with the plan position ctx
// carries, to the ledger.
func (d *Driver) recordPoint(ctx context.Context, report PointReport) {
	d.mu.Lock()
	d.points = append(d.points, ledgerEntry{montecarlo.PositionOf(ctx), report})
	d.mu.Unlock()
}

// Reports returns a copy of every point driven so far, in plan order
// (montecarlo.Position), which is the order the sequential program
// issues them in, however concurrent tasks finish. Points without a
// position keep their completion order, ahead of the rest.
func (d *Driver) Reports() []PointReport {
	d.mu.Lock()
	entries := append([]ledgerEntry(nil), d.points...)
	d.mu.Unlock()
	slices.SortStableFunc(entries, func(a, b ledgerEntry) int { return slices.Compare(a.pos, b.pos) })
	out := make([]PointReport, len(entries))
	for i, e := range entries {
		out[i] = e.report
	}
	return out
}

// Summary aggregates the driver's points.
type Summary struct {
	Points    int `json:"points"`
	Spent     int `json:"spent"`
	Converged int `json:"converged"`
	Capped    int `json:"capped"`
}

// Summarize aggregates the reports so far.
func (d *Driver) Summarize() Summary {
	d.mu.Lock()
	defer d.mu.Unlock()
	s := Summary{Points: len(d.points)}
	for _, e := range d.points {
		p := e.report
		s.Spent += p.Spent
		if p.Converged {
			s.Converged++
		} else {
			s.Capped++
		}
	}
	return s
}
