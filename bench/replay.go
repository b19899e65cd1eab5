package main

// The traced replay takes the last traced iteration's requests, as the
// engine handed them to the executor chain, and evaluates each again
// through one layer at a time: serially on one pool worker, on the pool
// at its default width, on the worker fleet, and through a cache (a
// cold pass that misses and writes, then a warm pass that hits). Every
// pass must agree with the pool bit for bit.

import (
	"context"
	"errors"
	"fmt"
	"os"

	"carriersense/internal/cache"
	"carriersense/internal/montecarlo"
)

// serialExec evaluates a request's shards through EvaluateShards — the
// entry point a fleet worker uses — and merges them in shard order.
// With the pool pinned to one worker it is the kernel alone.
type serialExec struct{}

func (serialExec) EstimateVec(_ context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	var idx []int
	for i := req.FirstShard; i < montecarlo.ShardCount(req.Samples); i++ {
		idx = append(idx, i)
	}
	shards, err := montecarlo.EvaluateShards(req, idx)
	if err != nil {
		return nil, err
	}
	merged := make([]montecarlo.Accumulator, req.Dim)
	for _, accs := range shards {
		for j := range merged {
			merged[j].Merge(accs[j])
		}
	}
	return merged, nil
}

// replayOutcome is what the replay found besides its spans.
type replayOutcome struct {
	requests   int
	mismatches int // fleet results that differ from the pool's
	caches     cache.Stats
}

// replay runs the passes under the recorder, one phase per pass.
func (h *harness) replay(ctx context.Context) (out replayOutcome, err error) {
	seen := map[string]bool{}
	var reqs []montecarlo.Request
	for _, r := range h.replayed {
		if k := cache.Key(r); !seen[k] {
			seen[k] = true
			reqs = append(reqs, r)
		}
	}
	if len(reqs) == 0 {
		return out, errors.New("replay: no traced iteration issued a request")
	}
	out.requests = len(reqs)
	fl := h.fleet
	if fl == nil {
		if fl, err = startFleet(); err != nil {
			return out, err
		}
		defer func() { err = errors.Join(err, fl.stop()) }()
	}
	dir, err := os.MkdirTemp(h.cfg.workdir, "replay-cache-")
	if err != nil {
		return out, fmt.Errorf("replay cache dir: %w", err)
	}
	defer os.RemoveAll(dir)

	h.rec.on.Store(true)
	defer func() {
		h.rec.on.Store(false)
		h.rec.setPhase("loop")
	}()
	pass := func(phase string, exec montecarlo.Executor) ([][]montecarlo.Accumulator, error) {
		h.rec.setPhase(phase)
		ctx, end := h.rec.begin(ctx, "replay", montecarlo.Request{})
		defer end()
		res := make([][]montecarlo.Accumulator, len(reqs))
		for i, req := range reqs {
			accs, err := exec.EstimateVec(ctx, req)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", phase, err)
			}
			res[i] = accs
		}
		return res, nil
	}

	if err := montecarlo.SetMaxWorkers(1); err != nil {
		return out, err
	}
	serial, err := pass("replay.serial", timed{"montecarlo", serialExec{}, h.rec})
	montecarlo.ResetMaxWorkers()
	if err != nil {
		return out, err
	}
	pool, err := pass("replay.pool", h.local())
	if err != nil {
		return out, err
	}
	fleet, err := pass("replay.fleet", timed{"dist", fl.remote, h.rec})
	if err != nil {
		return out, err
	}
	var errs []error
	caches := []*cache.Executor{cache.New(h.local(), cache.Options{Dir: dir}), cache.New(h.local(), cache.Options{Dir: dir})}
	for i, c := range caches {
		res, err := pass("replay.cache", timed{"cache", c, h.rec})
		if err != nil {
			return out, err
		}
		errs = append(errs, differ(reqs, pool, res, fmt.Sprintf("cache pass %d", i+1)))
		s := c.Stats()
		out.caches.Hits += s.Hits
		out.caches.DiskHits += s.DiskHits
		out.caches.Misses += s.Misses
		out.caches.WriteFails += s.WriteFails
		out.caches.Corrupt += s.Corrupt
	}
	for i := range reqs {
		if !equalStates(fleet[i], pool[i]) {
			out.mismatches++
		}
	}
	if out.mismatches > 0 {
		errs = append(errs, fmt.Errorf("replay: %d of %d fleet results differ from local", out.mismatches, len(reqs)))
	}
	errs = append(errs, differ(reqs, pool, serial, "serial pass"))
	return out, errors.Join(errs...)
}

// differ reports the first request whose result in got is not
// bit-identical to want.
func differ(reqs []montecarlo.Request, want, got [][]montecarlo.Accumulator, pass string) error {
	for i := range reqs {
		if !equalStates(want[i], got[i]) {
			return fmt.Errorf("replay %s: %s seed %d differs from the pool's result", pass, reqs[i].Kernel, reqs[i].Seed)
		}
	}
	return nil
}
