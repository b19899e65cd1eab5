package cache

import (
	"context"
	"testing"

	"carriersense/internal/montecarlo"
)

func TestPlannerLedgerInPlanOrder(t *testing.T) {
	if err := montecarlo.SetMaxWorkers(4); err != nil {
		t.Fatal(err)
	}
	defer montecarlo.ResetMaxWorkers()
	p := NewPlanner(t.TempDir())
	// Three tasks finish in reverse: each waits for the next to finish.
	done := []chan struct{}{make(chan struct{}), make(chan struct{}), make(chan struct{})}
	montecarlo.Fork(montecarlo.WithPlan(context.Background()), 3, func(ctx context.Context, i int) {
		defer close(done[i])
		if i < 2 {
			<-done[i+1]
		}
		ctx = montecarlo.Point(ctx)
		// Two requests per point, as a pilot and its point would issue.
		for k := 0; k < 2; k++ {
			if _, err := p.EstimateVec(ctx, testReq(float64(k+1), uint64(i), montecarlo.ShardSize)); err != nil {
				t.Error(err)
			}
		}
	})
	misses := p.Misses()
	entries := p.Entries()
	if len(misses) != 6 || len(entries) != 6 {
		t.Fatalf("%d misses, %d entries; want 6 each", len(misses), len(entries))
	}
	for k, req := range misses {
		if want := testReq(float64(k%2+1), uint64(k/2), montecarlo.ShardSize); Key(req) != Key(want) {
			t.Errorf("miss %d is (seed %d, params %s), want seed %d in plan order", k, req.Seed, req.Params, k/2)
		}
	}
}
