package experiments

import (
	"context"
	"testing"

	"carriersense/internal/cache"
	"carriersense/internal/engine"
)

// TestPrefetchHitRate guards the -cache -prefetch pass: after the
// planner's predicted misses are fetched, a fresh cache over the same
// directory must serve the real curves run from it. These are the
// calls `cs run curves -cache -prefetch` makes. The bound is the
// prefetch_hit_rate lane of BENCH_20260808.json, 1.0, with its 15% CI
// tolerance: 0.85.
func TestPrefetchHitRate(t *testing.T) {
	const minHitRate = 1.0 * (1 - 0.15)
	ctx := context.Background()
	dir := t.TempDir()
	opts := engine.Options{Scale: "smoke", Seed: "7"}

	planner := cache.NewPlanner(dir)
	planOpts := opts
	planOpts.Executor = planner
	if _, err := engine.Run(ctx, "curves", planOpts); err != nil {
		t.Fatal(err)
	}
	misses := planner.Misses()
	if len(misses) == 0 {
		t.Fatal("the plan of a cold cache predicted no misses")
	}
	rep, err := cache.Prefetch(ctx, cache.New(nil, cache.Options{Dir: dir}), misses)
	if err != nil {
		t.Fatal(err)
	}

	warm := cache.New(nil, cache.Options{Dir: dir})
	runOpts := opts
	runOpts.Executor = warm
	if _, err := engine.Run(ctx, "curves", runOpts); err != nil {
		t.Fatal(err)
	}
	st := warm.Stats()
	lookups := st.Hits + st.DiskHits + st.Misses
	if lookups == 0 {
		t.Fatal("the real run made no cache lookups")
	}
	rate := float64(st.Hits+st.DiskHits) / float64(lookups)
	t.Logf("prefetched %d; real run: %d hits, %d disk hits, %d misses", rep.Fetched, st.Hits, st.DiskHits, st.Misses)
	if rate < minHitRate {
		t.Errorf("prefetch hit rate = %.3f, want >= %.3f", rate, minHitRate)
	}
}

// TestSamplesToTargetSavings guards what the variance-reducing samplers
// save when the throughput curves (curves, Figure 4) and the efficiency
// tables (tables, Tables 1 and 2) are driven to 0.5% relative error: the
// samples each spends, pilots included, against plain's. The bounds are
// the sampling lane of BENCH_20260808.json with its 15% CI tolerance.
func TestSamplesToTargetSavings(t *testing.T) {
	spent := func(t *testing.T, scenario, sampler string) float64 {
		t.Helper()
		results, err := engine.Run(context.Background(), scenario, engine.Options{
			Scale:      "smoke",
			Sampler:    sampler,
			RelErr:     0.005,
			MaxSamples: 4194304,
		})
		if err != nil {
			t.Fatal(err)
		}
		n := results[0].Metrics["sampling_spent"]
		if n <= 0 {
			t.Fatalf("%s/%s spent %v samples", scenario, sampler, n)
		}
		return n
	}
	plain := map[string]float64{}
	for _, c := range []struct {
		scenario, sampler string
		snapshotPct       float64 // savings over plain in the snapshot, %
	}{
		{"curves", "sobol", 88.1},
		{"curves", "cv", 82.1},
		{"tables", "sobol", 88.6},
	} {
		t.Run(c.scenario+"/"+c.sampler, func(t *testing.T) {
			if _, ok := plain[c.scenario]; !ok {
				plain[c.scenario] = spent(t, c.scenario, "plain")
			}
			n := spent(t, c.scenario, c.sampler)
			pct := 100 * (1 - n/plain[c.scenario])
			t.Logf("plain %.0f, %s %.0f samples (-%.1f%%)", plain[c.scenario], c.sampler, n, pct)
			if minPct := c.snapshotPct * (1 - 0.15); pct < minPct {
				t.Errorf("%s saves %.1f%% of plain's samples on %s, want >= %.1f%%",
					c.sampler, pct, c.scenario, minPct)
			}
		})
	}
}
