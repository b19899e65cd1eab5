package experiments

import (
	"context"
	"testing"

	"carriersense/internal/engine"
	"carriersense/internal/montecarlo"
)

// TestTablesEstimationCount is a perf gate on the work of a bench-scale
// tables run: per row, a threshold search of 12 core/policy-diff steps
// of 10,000 samples, then one core/averages-row estimate of 40,000
// samples that serves the row's cells in both tables, so 39
// estimations of 480,000 samples over the three rows.
func TestTablesEstimationCount(t *testing.T) {
	rec := &kernelRecorder{inner: montecarlo.Local{}, seen: map[string]bool{}}
	if _, err := engine.Run(context.Background(), "tables", engine.Options{Seed: "1", Scale: "bench", Executor: rec}); err != nil {
		t.Fatal(err)
	}
	t.Logf("%d estimations of %d samples, kernels %v", rec.requests, rec.requested, rec.seen)
	if rec.requests != 39 || rec.requested != 480_000 {
		t.Errorf("a bench-scale tables run makes %d estimations of %d samples, want 39 of 480000", rec.requests, rec.requested)
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
