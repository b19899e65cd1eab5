package cache

import (
	"encoding/json"
	"math"
	"testing"

	"carriersense/internal/montecarlo"
	"carriersense/internal/rng"
)

// The control-variate spec joined the cache key in epoch 4: two
// requests that differ only in (β, μ) compute different adjusted
// variables and must never share an entry.

// The test kernel's twin: its first uniform, exact mean 1/2 — the
// prefix-consumption contract control twins follow.
func init() {
	montecarlo.RegisterControlTwin("cachetest/scaled", montecarlo.ControlTwin{
		Eval: func(raw json.RawMessage) (montecarlo.BatchEvalFunc, error) {
			return montecarlo.BatchLoop(2, func(src *rng.Source, out []float64) {
				u := src.Float64()
				out[0] = u
				out[1] = u
			}), nil
		},
		Means: func(raw json.RawMessage) ([]float64, error) {
			return []float64{0.5, math.NaN()}, nil
		},
	})
}

func controlReq(beta float64) montecarlo.Request {
	req := testReq(1, 5, montecarlo.ShardSize)
	req.Control = &montecarlo.ControlSpec{Beta: []float64{beta, 0}, Mean: []float64{0.5, 0}}
	return req
}

func TestControlSpecPartOfCacheKey(t *testing.T) {
	a := Key(controlReq(1))
	b := Key(controlReq(2))
	if a == b {
		t.Error("different β produced the same cache key")
	}
	if c := Key(testReq(1, 5, montecarlo.ShardSize)); a == c {
		t.Error("control-adjusted request shares a key with the unadjusted one")
	}
}

func TestControlSpecRoundTripsThroughDisk(t *testing.T) {
	dir := t.TempDir()
	first := New(&countingExecutor{inner: montecarlo.Local{}}, Options{Dir: dir})
	want := mustEstimate(t, first, controlReq(1))

	// A second process (fresh Cache over the same directory) must hit
	// and verify the stored spec against the request's.
	second := New(&countingExecutor{inner: montecarlo.Local{}}, Options{Dir: dir})
	got := mustEstimate(t, second, controlReq(1))
	if !sameAccs(got, want) {
		t.Error("disk hit not bit-identical")
	}
	if st := second.Stats(); st.DiskHits != 1 || st.Misses != 0 {
		t.Errorf("stats = %+v, want a pure disk hit", st)
	}

	// A different β is a different computation: full miss.
	third := New(&countingExecutor{inner: montecarlo.Local{}}, Options{Dir: dir})
	other := mustEstimate(t, third, controlReq(2))
	if st := third.Stats(); st.Misses != 1 {
		t.Errorf("different β hit a stale entry: stats %+v", st)
	}
	if sameAccs(other, want) {
		t.Error("β=2 result equals β=1 result; adjustment not applied")
	}
}
