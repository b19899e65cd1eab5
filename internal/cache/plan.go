package cache

// Cache-aware orchestration: the Planner is a dry-run
// montecarlo.Executor that answers "which of this run's estimations
// are already paid for?" without evaluating anything. `cs all -cache
// -plan` installs it, replays every scenario against it, and prints
// the would-be hit/miss ledger before any real work is committed.
//
// A planned request that the persistent layer holds returns its real
// cached states, so downstream scenario logic (threshold searches
// branching on estimates) follows the same path the cached run will.
// A miss returns a zero-mean placeholder with the request's sample
// count — enough for most scenario code to proceed — and is recorded
// as work the real run would have to evaluate. Scenarios whose control
// flow depends on missing estimates may therefore over- or
// under-count subsequent requests; the plan is exact when everything
// hits and an approximation otherwise.

import (
	"context"
	"slices"
	"sync"

	"carriersense/internal/montecarlo"
)

// PlanEntry is one estimation the planned run would issue.
type PlanEntry struct {
	Kernel  string `json:"kernel"`
	Sampler string `json:"sampler,omitempty"`
	Samples int    `json:"samples"` // samples the request would evaluate (its shard span)
	Cached  bool   `json:"cached"`
}

// PlanSummary aggregates a planner's ledger.
type PlanSummary struct {
	Requests      int   `json:"requests"`
	Cached        int   `json:"cached"`
	ToEvaluate    int   `json:"to_evaluate"`
	SamplesCached int   `json:"samples_cached"`
	SamplesToEval int64 `json:"samples_to_evaluate"`
}

// Planner is the dry-run executor. It never evaluates and never
// writes entries; probing does refresh the mtime of entries it finds
// (the disk LRU counts a planned hit as recent use).
type Planner struct {
	probe *Executor // read path into the persistent layer

	mu     sync.Mutex
	ledger []planned
}

// planned is one request the planned run issued, with the plan
// position (montecarlo.Position) of the estimation point it serves.
type planned struct {
	pos   montecarlo.Position
	entry PlanEntry
}

// NewPlanner builds a dry-run executor over a persistent cache
// directory.
func NewPlanner(dir string) *Planner {
	return &Planner{probe: New(nil, Options{Dir: dir})}
}

// EstimateVec implements montecarlo.Executor: record, serve hits from
// disk, placeholder the misses.
func (p *Planner) EstimateVec(ctx context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	entry := PlanEntry{Kernel: req.Kernel, Sampler: req.Sampler, Samples: req.SampleSpan()}
	states, hit := p.probe.loadDisk(Key(req), req)
	entry.Cached = hit
	p.mu.Lock()
	p.ledger = append(p.ledger, planned{montecarlo.PositionOf(ctx), entry})
	p.mu.Unlock()
	if hit {
		return fromStates(states), nil
	}
	// Placeholder: the right sample count with a zero mean, so
	// scenario code sees plausible shapes without any evaluation.
	accs := make([]montecarlo.Accumulator, req.Dim)
	for i := range accs {
		accs[i] = montecarlo.FromState(montecarlo.AccumulatorState{N: req.SampleSpan()})
	}
	return accs, nil
}

// ordered returns the ledger in plan order: by the position of the
// point each request serves, which is the sequential program's order
// however concurrent tasks interleaved. A point's own requests (its
// pilots, then the point) arrive in order from one task, and the
// stable sort keeps them so.
func (p *Planner) ordered() []planned {
	p.mu.Lock()
	out := append([]planned(nil), p.ledger...)
	p.mu.Unlock()
	slices.SortStableFunc(out, func(a, b planned) int { return slices.Compare(a.pos, b.pos) })
	return out
}

// Entries returns a copy of the ledger in plan order.
func (p *Planner) Entries() []PlanEntry {
	var out []PlanEntry
	for _, pl := range p.ordered() {
		out = append(out, pl.entry)
	}
	return out
}

// Reset clears the ledger (between scenarios, so per-scenario
// summaries don't bleed into each other).
func (p *Planner) Reset() {
	p.mu.Lock()
	p.ledger = p.ledger[:0]
	p.mu.Unlock()
}

// Summarize aggregates the ledger so far.
func (p *Planner) Summarize() PlanSummary {
	p.mu.Lock()
	defer p.mu.Unlock()
	var s PlanSummary
	for _, pl := range p.ledger {
		e := pl.entry
		s.Requests++
		if e.Cached {
			s.Cached++
			s.SamplesCached += e.Samples
		} else {
			s.ToEvaluate++
			s.SamplesToEval += int64(e.Samples)
		}
	}
	return s
}
