package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"carriersense/internal/engine"
	"carriersense/internal/montecarlo"
)

func TestMain(m *testing.M) {
	probeMain() // the smoke test's setup launches re-execute this binary
	os.Exit(m.Run())
}

func TestTailPercentileLeavesTenSamplesBeyond(t *testing.T) {
	for n, want := range map[int]int{100: 90, 1000: 99, 50: 80, 60: 83, 11: 9, 10: 0, 3: 0} {
		if got := tailPercentile(n); got != want {
			t.Errorf("tailPercentile(%d) = %d, want %d", n, got, want)
		}
	}
	if got := tailPercentile(minIterations); got < tailPct {
		t.Errorf("a loop of minIterations=%d resolves p%d, below the reported p%d", minIterations, got, tailPct)
	}
	for n := 11; n <= 400; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		beyond := func(p int) int {
			v, c := percentile(xs, float64(p)), 0
			for _, x := range xs {
				if x > v {
					c++
				}
			}
			return c
		}
		p := tailPercentile(n)
		if beyond(p) < minTail {
			t.Fatalf("n=%d: p%d has %d samples beyond it, want >= %d", n, p, beyond(p), minTail)
		}
		if p < 99 && beyond(p+1) >= minTail {
			t.Fatalf("n=%d: p%d is not the highest percentile with %d samples beyond", n, p, minTail)
		}
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v, want 2.75, 8.25", q1, q3)
	}
	if s := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); s != 5.5/5.5 {
		t.Fatalf("spread = %v, want 1", s)
	}
}

func TestSelfTimeSubtractsUnionOfOverlappingChildren(t *testing.T) {
	ms := time.Millisecond
	parent := span{ID: 1, Start: 0, End: 100 * ms}
	children := []span{
		{Parent: 1, Start: 30 * ms, End: 60 * ms}, // overlaps the next one
		{Parent: 1, Start: 10 * ms, End: 40 * ms},
		{Parent: 1, Start: 80 * ms, End: 120 * ms}, // runs past the parent
		{Parent: 1, Start: 15 * ms, End: 20 * ms},  // inside another child
	}
	// Covered: [10,60] and [80,100] = 70ms.
	if got := selfTime(parent, children); got != 30*ms {
		t.Fatalf("selfTime = %v, want 30ms", got)
	}
	if got := selfTime(parent, nil); got != 100*ms {
		t.Fatalf("selfTime without children = %v, want 100ms", got)
	}
}

func TestSpansLinkToTheirCallerThroughTheEngine(t *testing.T) {
	h := newHarness(workloads[0], config{seed: 1, scale: "smoke", workdir: t.TempDir()})
	h.rec.on.Store(true)
	ctx, end := h.rec.begin(context.Background(), "iteration", montecarlo.Request{})
	if _, err := h.run(ctx, "tables", engine.Options{Seed: "1"}, h.local()); err != nil {
		t.Fatal(err)
	}
	end()
	spans := h.rec.snapshot()
	byName := map[string][]span{}
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s)
	}
	if len(byName["iteration"]) != 1 || len(byName["engine"]) != 1 || len(byName["montecarlo"]) == 0 {
		t.Fatalf("spans by layer: %d iteration, %d engine, %d montecarlo", len(byName["iteration"]), len(byName["engine"]), len(byName["montecarlo"]))
	}
	it, eng := byName["iteration"][0], byName["engine"][0]
	if eng.Parent != it.ID {
		t.Fatalf("engine span's parent = %d, want the iteration %d", eng.Parent, it.ID)
	}
	for _, s := range byName["montecarlo"] {
		if s.Parent != eng.ID {
			t.Fatalf("montecarlo span %d has parent %d, want the engine span %d", s.ID, s.Parent, eng.ID)
		}
		if s.Kernel == "" || s.Samples == 0 {
			t.Fatalf("executor span without its request: %+v", s)
		}
	}
}

// failingExec is an executor whose every call fails.
type failingExec struct{}

func (failingExec) EstimateVec(context.Context, montecarlo.Request) ([]montecarlo.Accumulator, error) {
	return nil, errors.New("injected executor failure")
}

func TestFailuresRaiseErrorRate(t *testing.T) {
	cases := []workload{
		{name: "executor-error", iterate: func(h *harness, ctx context.Context, i int) error {
			if i == 0 {
				return nil // let the warm-up pass
			}
			_, err := h.run(ctx, "tables", engine.Options{Seed: h.seed(i)}, failingExec{})
			return err
		}},
		{name: "digest-mismatch", iterate: func(h *harness, ctx context.Context, i int) error {
			// Every run reports the same seed with a different result.
			return h.repeatable("1", []*engine.Result{{Scenario: "tables", Text: fmt.Sprint(i)}})
		}},
	}
	for _, w := range cases {
		t.Run(w.name, func(t *testing.T) {
			r, err := measure(context.Background(), w, config{seed: 1, iters: 2, scale: "smoke", workdir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			if got := r.Metrics["error_rate"].Value; got != 1 || r.correct() {
				t.Fatalf("error_rate %v (%d of %d failed), correct %v; want every iteration failed", got, r.Failed, r.Attempted, r.correct())
			}
		})
	}
}

func TestResetPeakRSSForgetsAnEarlierPeak(t *testing.T) {
	if _, err := os.Stat("/proc/self/clear_refs"); err != nil {
		t.Skip("no /proc/self/clear_refs:", err)
	}
	const mb = 64
	buf := make([]byte, mb<<20)
	for i := range buf {
		buf[i] = 1 // touch every page so it is resident
	}
	high := peakRSS()
	runtime.KeepAlive(buf) // buf is garbage from here on
	if err := resetPeakRSS(); err != nil {
		t.Fatal(err)
	}
	if low := peakRSS(); low > high-mb/2 {
		t.Fatalf("peak RSS after reset = %.1f MB, want well below the earlier %.1f MB", low, high)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := metricDef{Name: "run_p50_ref", Better: "lower", Bound: 0.1}
	higher := metricDef{Name: "runs_per_ref", Better: "higher", Bound: 0.1}
	steady := []float64{10, 10.1, 9.9, 10, 10.05}
	scale := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	cases := []struct {
		name string
		d    metricDef
		a, b []float64
		want string
	}{
		{"unchanged", lower, steady, steady, "ok"},
		{"slower beyond the bound", lower, steady, scale(steady, 1.2), "REGRESSION"},
		{"slower within the bound", lower, steady, scale(steady, 1.05), "ok"},
		{"lower throughput beyond the bound", higher, steady, scale(steady, 0.8), "REGRESSION"},
		{"higher throughput beyond the bound", higher, steady, scale(steady, 1.2), "better"},
		{"spread wider than the bound", lower, []float64{8, 10, 12, 14, 9}, scale(steady, 1.2), "unresolved"},
		{"wide spread but every run better", lower, []float64{20, 25, 30, 35, 22}, steady, "better"},
		{"a single run", lower, []float64{10}, []float64{13}, "unresolved"},
	}
	for _, c := range cases {
		if _, got := verdict(c.d, c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
