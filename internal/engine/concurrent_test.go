package engine_test

import (
	"context"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"

	"carriersense/internal/engine"
	"carriersense/internal/montecarlo"
)

// countingExec counts the requests it passes on to montecarlo.Local.
type countingExec struct{ requests atomic.Int64 }

func (c *countingExec) EstimateVec(ctx context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	c.requests.Add(1)
	return montecarlo.Local{}.EstimateVec(ctx, req)
}

// TestConcurrentRunsKeepTheirOwnExecutors runs two tables runs at once,
// one plain and one driven by sobol, each through an executor of its
// own. A run's executor and sampler belong to that run: each run must
// send its executor exactly the requests it sends when run alone, and
// write the same result.json.
func TestConcurrentRunsKeepTheirOwnExecutors(t *testing.T) {
	runs := []engine.Options{
		{Seed: "1", Scale: "smoke"},
		{Seed: "2", Scale: "smoke", Sampler: "sobol", RelErr: 0.01},
	}
	type outcome struct {
		result   []byte
		requests int64
		err      error
	}
	run := func(opts engine.Options, dir string) outcome {
		exec := &countingExec{}
		opts.Executor, opts.OutDir = exec, dir
		if _, err := engine.Run(context.Background(), "tables", opts); err != nil {
			return outcome{err: err}
		}
		files, err := filepath.Glob(filepath.Join(dir, "*", "result.json"))
		if err != nil || len(files) != 1 {
			return outcome{err: err}
		}
		b, err := os.ReadFile(files[0])
		return outcome{result: b, requests: exec.requests.Load(), err: err}
	}
	serial := make([]outcome, len(runs))
	for i, opts := range runs {
		serial[i] = run(opts, t.TempDir())
	}
	together := make([]outcome, len(runs))
	dirs := []string{t.TempDir(), t.TempDir()}
	var wg sync.WaitGroup
	for i, opts := range runs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			together[i] = run(opts, dirs[i])
		}()
	}
	wg.Wait()
	for i := range runs {
		s, c := serial[i], together[i]
		if s.err != nil || c.err != nil {
			t.Fatalf("run %d: serial error %v, concurrent error %v", i, s.err, c.err)
		}
		if c.requests != s.requests {
			t.Errorf("run %d sent its executor %d requests beside another run, %d alone", i, c.requests, s.requests)
		}
		if string(c.result) != string(s.result) {
			t.Errorf("run %d: result.json beside another run differs from its serial run", i)
		}
	}
}
