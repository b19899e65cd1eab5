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
		// Two requests per point, as a pilot and its point would issue;
		// the n-th request in plan order asks for n+1 shards.
		for k := 0; k < 2; k++ {
			if _, err := p.EstimateVec(ctx, testReq(float64(k+1), uint64(i), (2*i+k+1)*montecarlo.ShardSize)); err != nil {
				t.Error(err)
			}
		}
	})
	entries := p.Entries()
	if len(entries) != 6 {
		t.Fatalf("%d entries, want 6", len(entries))
	}
	for n, e := range entries {
		if want := (n + 1) * montecarlo.ShardSize; e.Samples != want {
			t.Errorf("entry %d spans %d samples, want %d in plan order", n, e.Samples, want)
		}
	}
}
