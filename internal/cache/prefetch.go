package cache

// Plan-driven prefetch: the bridge from the Planner's predicted-miss
// ledger to a warm cache. `cs run/all -cache -prefetch` dry-runs the
// scenario against the Planner first, hands the misses to Prefetch,
// and only then starts the real run — which therefore begins with the
// fleet's work already persisted and proceeds as straight cache hits.
// The payoff is largest on distributed runs: the prefetch pass streams
// every missing estimation through the worker fleet back to back,
// instead of interleaving fleet round trips with the scenario's
// between-estimation logic.

import (
	"context"
	"fmt"

	"carriersense/internal/montecarlo"
)

// PrefetchReport summarizes one prefetch pass.
type PrefetchReport struct {
	Planned int   `json:"planned"` // distinct estimations the plan predicted missing
	Fetched int   `json:"fetched"` // evaluated and persisted
	Skipped int   `json:"skipped"` // already present by the time the pass reached them
	Failed  int   `json:"failed"`  // evaluations that errored (the real run will retry)
	Samples int64 `json:"samples"` // samples evaluated by the pass
}

// Prefetch evaluates the given predicted-miss requests through a
// caching executor, persisting each result, so a subsequent run served
// by the same cache directory is all hits. Duplicate requests (the
// same estimation predicted missing by several scenarios) are fetched
// once, keyed exactly as the cache keys them.
//
// Failures do not abort the pass: a prefetch is a warm-up, and any
// estimation it could not fill is simply evaluated by the real run as
// it would have been anyway. The first failure is reported in the
// returned error alongside the (partial) report; a canceled context
// aborts the pass.
func Prefetch(ctx context.Context, exec *Executor, misses []montecarlo.Request) (PrefetchReport, error) {
	var rep PrefetchReport
	var firstErr error
	seen := make(map[string]struct{}, len(misses))
	for _, req := range misses {
		key := Key(req)
		if _, dup := seen[key]; dup {
			continue
		}
		seen[key] = struct{}{}
		rep.Planned++
		if ctx.Err() != nil {
			return rep, ctx.Err()
		}
		// Another process (or an earlier duplicate under a different
		// sampler spelling) may have filled the entry since the plan
		// ran; serve-from-disk is what EstimateVec does anyway, so a
		// hit here is just a cheap skip.
		if _, hit := exec.loadDisk(key, req); hit {
			rep.Skipped++
			continue
		}
		if _, err := exec.EstimateVec(ctx, req); err != nil {
			if ctx.Err() != nil {
				return rep, ctx.Err()
			}
			rep.Failed++
			if firstErr == nil {
				firstErr = fmt.Errorf("cache: prefetch %s (%d samples): %w", req.Kernel, req.SampleSpan(), err)
			}
			continue
		}
		rep.Fetched++
		rep.Samples += int64(req.SampleSpan())
	}
	return rep, firstErr
}
