package sampling

// The variance-aware sampler auto-scheduler: `-sampler auto` stops
// asking the user to guess which variance-reduction strategy fits
// which kernel. "auto" is a virtual strategy — never registered,
// never on the wire — resolved by the AutoScheduler executor
// decorator: on first sight of each kernel it runs a cheap fixed-size
// pilot round under every candidate strategy, scores each by the
// samples it would need to reach a relative-error target, and
// rewrites every subsequent request for that kernel to the winner.
//
// The score is each candidate's cost to reach the target: a strategy's
// cost to reach relative error t is (per-observation relative
// variance) × group ÷ t², so var_obs × group ranks candidates for
// every target at once. With a known convergence target the score is
// that sample count; without one it is the raw relative variance.
// Scores come from the same bit-identical accumulator machinery as
// real estimations (the pilots run through the base executor), so the
// choice — like everything else in the pipeline — is a pure function
// of (kernel, params, seed) and reproduces identically on any
// executor; ties break by fixed candidate order. Choices live for one
// process: a repeat run pilots again, and under -cache the cache
// serves those pilots.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"

	"carriersense/internal/montecarlo"
)

// Auto is the virtual auto-scheduling strategy name. It is valid only
// as a CLI/engine-level choice; requests reaching shard evaluation
// always carry the resolved winner.
const Auto = "auto"

// AutoPilotShards is the per-candidate pilot budget in shards. Two
// shards give each candidate enough observations (≥ 32 even at the
// sobol block size) for a stable variance ranking while costing less
// than a single typical convergence round.
const AutoPilotShards = 2

// autoPilotSamples is one candidate's pilot budget in samples.
const autoPilotSamples = AutoPilotShards * montecarlo.ShardSize

// autoCandidates are the candidate strategies, in the fixed
// tie-break order: cheapest machinery first.
var autoCandidates = []string{Plain, Stratified, Sobol}

// AutoOptions configure an AutoScheduler.
type AutoOptions struct {
	// Target is the convergence driver's relative-error target, when
	// the scheduler runs inside a driven chain. With a target the
	// score is each candidate's variance-implied per-point sample
	// count; with 0 it is the target-independent relative variance.
	Target float64
}

// PilotScore is one candidate's pilot result, kept for reporting.
type PilotScore struct {
	Sampler string  `json:"sampler"`
	Score   float64 `json:"score"` // expected per-point samples (or relative variance; lower is better)
}

// AutoScheduler is the auto-resolving executor decorator. It wraps
// the rest of the chain (the convergence driver) so a driven point's
// rounds all run under one resolved strategy, and pilots go to the
// base executor directly — a pilot is a fixed-budget probe, not
// something to drive to convergence.
type AutoScheduler struct {
	inner montecarlo.Executor // full chain: handles the resolved request
	base  montecarlo.Executor // pilot path: no driving, no auto rewriting

	mu       sync.Mutex
	choices  map[string]string       // kernel → winning sampler name ("plain" literal)
	scores   map[string][]PilotScore // kernel → pilot scoreboard
	piloting map[string]bool         // kernels whose pilot is running
	settled  chan struct{}           // closed (and replaced) when a pilot ends
	spent    int
	target   float64
}

// NewAuto builds an auto-scheduler over inner (the resolved-request
// chain) and base (the undecorated executor pilots probe through; nil
// = in-process).
func NewAuto(inner, base montecarlo.Executor, opt AutoOptions) *AutoScheduler {
	if base == nil {
		base = montecarlo.Local{}
	}
	return &AutoScheduler{
		inner:    inner,
		base:     base,
		choices:  map[string]string{},
		scores:   map[string][]PilotScore{},
		piloting: map[string]bool{},
		settled:  make(chan struct{}),
		target:   opt.Target,
	}
}

// score runs one candidate's pilot and returns its expected per-point
// samples to reach the target (with a known target), or its raw
// relative samples-to-target — per-observation relative variance ×
// group — without one. The count is deliberately NOT floored at the
// driver's round sizes: the pilot sees one point's params, and
// flooring would let a lane's easiest point erase the variance
// ranking that governs its hardest ones. Lower is better.
func (a *AutoScheduler) score(ctx context.Context, req montecarlo.Request, cand string) (float64, error) {
	pr := req
	pr.Sampler = cand
	if cand == Plain {
		pr.Sampler = "" // canonical plain identity
	}
	pr.Samples = autoPilotSamples
	pr.FirstShard = 0
	accs, err := a.base.EstimateVec(ctx, pr)
	if err != nil {
		return 0, fmt.Errorf("sampling: auto pilot %q/%s: %w", req.Kernel, cand, err)
	}
	group, err := montecarlo.SamplerGroup(cand)
	if err != nil {
		return 0, err
	}
	est := accs[0].Estimate()
	if est.Mean == 0 {
		return math.Inf(1), nil
	}
	varObs := est.StdErr * est.StdErr * float64(est.N)
	raw := varObs * float64(group) / (est.Mean * est.Mean)
	if a.target > 0 {
		return raw / (a.target * a.target), nil
	}
	return raw, nil
}

// resolve returns the winning sampler name for a kernel, piloting the
// candidates on first sight. The pilot runs on the request the
// sequential program would have seen first: only the task that leads
// its plan (montecarlo.Leads) may pilot an unresolved kernel, and a
// later task that asks first waits until the kernel resolves or it
// comes to lead. The lock is not held across a pilot, so requests for
// resolved kernels keep flowing meanwhile. A pilot runs once per
// kernel per process.
func (a *AutoScheduler) resolve(ctx context.Context, req montecarlo.Request) (string, error) {
	for {
		leads, changed := montecarlo.Leads(ctx)
		a.mu.Lock()
		if name, ok := a.choices[req.Kernel]; ok {
			a.mu.Unlock()
			return name, nil
		}
		if leads && !a.piloting[req.Kernel] {
			a.piloting[req.Kernel] = true
			a.mu.Unlock()
			return a.pilot(ctx, req)
		}
		settled := a.settled
		a.mu.Unlock()
		select {
		case <-changed:
		case <-settled:
		case <-ctx.Done():
			return "", ctx.Err()
		}
	}
}

// pilot scores every candidate on req and records the winner. A failed
// pilot records nothing, so a later request may pilot again.
func (a *AutoScheduler) pilot(ctx context.Context, req montecarlo.Request) (string, error) {
	best, bestScore := "", math.Inf(1)
	var board []PilotScore
	var err error
	for _, cand := range autoCandidates {
		var s float64
		if s, err = a.score(ctx, req, cand); err != nil {
			break
		}
		board = append(board, PilotScore{Sampler: cand, Score: s})
		if s < bestScore { // strict: ties keep the earlier candidate
			best, bestScore = cand, s
		}
	}
	if best == "" {
		best = Plain // every candidate scored +Inf (zero primary mean)
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	delete(a.piloting, req.Kernel)
	close(a.settled)
	a.settled = make(chan struct{})
	a.spent += len(board) * autoPilotSamples
	if err != nil {
		return "", err
	}
	a.choices[req.Kernel] = best
	a.scores[req.Kernel] = board
	return best, nil
}

// Choices returns the per-kernel winners resolved so far, keyed by
// kernel name. Deterministic content —
// safe to embed in byte-compared artifacts.
func (a *AutoScheduler) Choices() map[string]string {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string]string, len(a.choices))
	for k, v := range a.choices {
		out[k] = v
	}
	return out
}

// Scores returns each piloted kernel's scoreboard, candidates in
// tie-break order.
func (a *AutoScheduler) Scores() map[string][]PilotScore {
	a.mu.Lock()
	defer a.mu.Unlock()
	out := make(map[string][]PilotScore, len(a.scores))
	for k, v := range a.scores {
		out[k] = append([]PilotScore(nil), v...)
	}
	return out
}

// ChoiceLines renders the resolved choices as sorted "kernel=sampler"
// strings for logs and reports.
func (a *AutoScheduler) ChoiceLines() []string {
	choices := a.Choices()
	kernels := make([]string, 0, len(choices))
	for k := range choices {
		kernels = append(kernels, k)
	}
	sort.Strings(kernels)
	lines := make([]string, len(kernels))
	for i, k := range kernels {
		lines[i] = k + "=" + choices[k]
	}
	return lines
}

// PilotSpent returns the total samples the scheduler's pilots have
// evaluated: real samples the driver never sees, which an honest
// spend ledger folds in.
func (a *AutoScheduler) PilotSpent() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.spent
}

// EstimateVec implements montecarlo.Executor: auto requests are
// rewritten to their kernel's resolved strategy; everything else
// passes through.
func (a *AutoScheduler) EstimateVec(ctx context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	if req.Sampler != Auto {
		return a.inner.EstimateVec(ctx, req)
	}
	name, err := a.resolve(ctx, req)
	if err != nil {
		return nil, err
	}
	if name == Plain {
		name = "" // canonical plain identity
	}
	req.Sampler = name
	return a.inner.EstimateVec(ctx, req)
}
