package main

import (
	"context"
	"encoding/json"
	"math"
	"testing"
)

// TestSmokeEveryWorkloadEmitsEveryMetric runs each workload for two
// smoke-scale iterations with tracing on (one untraced, one traced,
// then the replay) and checks that every metric BENCHMARK.json names
// comes out finite and that nothing failed. It asserts nothing about
// speed.
func TestSmokeEveryWorkloadEmitsEveryMetric(t *testing.T) {
	def, err := loadBenchmark("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(def.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the harness has %d", len(def.Workloads), len(workloads))
	}
	cfg := config{seed: 1, iters: 2, trace: true, scale: "smoke", launches: 1, workdir: t.TempDir()}
	for i, d := range def.Workloads {
		w, ok := lookupWorkload(d.Name)
		if !ok {
			t.Fatalf("BENCHMARK.json workload %q is not in the harness", d.Name)
		}
		r, err := measure(context.Background(), w, cfg)
		if err != nil {
			t.Fatalf("%s: %v", d.Name, err)
		}
		if !r.correct() || r.Metrics["error_rate"].Value != 0 {
			t.Errorf("%s: %d of %d iterations failed: %v", d.Name, r.Failed, r.Attempted, r.Errors)
		}
		for _, m := range append(def.EndToEnd, def.PerLayer...) {
			got, ok := r.Metrics[m.Name]
			if !ok || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
				t.Errorf("%s: metric %s = %v (emitted %v), want a finite value", d.Name, m.Name, got.Value, ok)
			} else if got.Unit != m.Unit {
				t.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", d.Name, m.Name, got.Unit, m.Unit)
			}
		}
		if _, err := json.Marshal(traceEvents(i+1, r.Workload, r.spans)); err != nil {
			t.Errorf("%s: trace does not marshal: %v", d.Name, err)
		}
	}
}
