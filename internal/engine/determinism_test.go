package engine_test

// Integration test for the engine's determinism contract: the same
// seed and scenario produce byte-identical merged results at any
// -parallel worker width, because Monte Carlo random streams are
// assigned per fixed-size shard rather than per worker.

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"carriersense/internal/engine"
	_ "carriersense/internal/experiments" // registers the scenario catalog
	"carriersense/internal/montecarlo"
)

// runWith runs one variant of a scenario at seed 12345 and smoke scale
// with the given options, writing its artifacts to a fresh directory,
// and returns the result and that run directory.
func runWith(t *testing.T, name string, opts engine.Options) (*engine.Result, string) {
	t.Helper()
	opts.Seed, opts.Scale, opts.OutDir = "12345", "smoke", t.TempDir()
	results, err := engine.Run(context.Background(), name, opts)
	if err != nil {
		t.Fatalf("run %s: %v", name, err)
	}
	if len(results) != 1 {
		t.Fatalf("%d results", len(results))
	}
	dirs, err := filepath.Glob(filepath.Join(opts.OutDir, "*"))
	if err != nil || len(dirs) != 1 {
		t.Fatalf("run dirs %v (%v)", dirs, err)
	}
	return results[0], dirs[0]
}

func TestScenarioOutputInvariantUnderParallelWidth(t *testing.T) {
	// One Monte Carlo model scenario, one packet-level scenario, and a
	// multi-estimate table scenario cover the merged-result paths. The
	// driven auto run covers the orders that concurrent table points
	// must not change: the sampling ledger and the auto pilot's choice.
	cases := []struct {
		label, name string
		opts        engine.Options
		artifacts   []string
	}{
		{name: "curves"},
		{name: "tables"},
		{label: "tables-auto-relerr", name: "tables",
			opts:      engine.Options{Sampler: "auto", RelErr: 0.01},
			artifacts: []string{"sampling.csv", "sampler_choices.csv"}},
		{name: "section34"},
		{name: "testbed", opts: engine.Options{Sets: []string{"range=short", "combos=4"}}},
	}
	for _, tc := range cases {
		label := tc.label
		if label == "" {
			label = tc.name
		}
		t.Run(label, func(t *testing.T) {
			setWidth(t, 1)
			serial, serialDir := runWith(t, tc.name, tc.opts)
			for _, width := range []int{2, 8} {
				setWidth(t, width)
				wide, wideDir := runWith(t, tc.name, tc.opts)
				if wide.Text != serial.Text {
					t.Errorf("parallel=%d text differs from serial (lens %d vs %d)",
						width, len(wide.Text), len(serial.Text))
				}
				if !reflect.DeepEqual(wide.Metrics, serial.Metrics) {
					t.Errorf("parallel=%d metrics differ:\n%v\nvs\n%v",
						width, wide.Metrics, serial.Metrics)
				}
				for _, name := range tc.artifacts {
					a, errA := os.ReadFile(filepath.Join(serialDir, name))
					b, errB := os.ReadFile(filepath.Join(wideDir, name))
					if errA != nil || errB != nil {
						t.Fatalf("read %s: %v / %v", name, errA, errB)
					}
					if !bytes.Equal(a, b) {
						t.Errorf("parallel=%d %s differs from serial:\n%s\nvs\n%s", width, name, b, a)
					}
				}
			}
		})
	}
}

// setWidth pins the Monte Carlo pool width until the test ends.
func setWidth(t *testing.T, n int) {
	t.Helper()
	if err := montecarlo.SetMaxWorkers(n); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(montecarlo.ResetMaxWorkers)
}

func TestEveryFormerBinaryHasAScenario(t *testing.T) {
	// The consolidation contract of the cs CLI: each former cmd/cs*
	// concern is a registered scenario.
	want := map[string]string{
		"curves":       "cscurves",
		"inefficiency": "cscurves -inefficiency",
		"threshold":    "csthreshold",
		"landscape":    "cslandscape",
		"preference":   "cslandscape -pref",
		"tables":       "cstables",
		"robustness":   "cstables -sweep",
		"multi":        "csmulti",
		"testbed":      "cstestbed",
		"exposed":      "cstestbed -exposed",
		"fit":          "csfit",
	}
	for name, former := range want {
		if _, ok := engine.Lookup(name); !ok {
			t.Errorf("scenario %q (former %s) not registered", name, former)
		}
	}
	if got := len(engine.Scenarios()); got < len(want) {
		t.Errorf("only %d scenarios registered", got)
	}
}

func TestSeedChangesResults(t *testing.T) {
	a, err := engine.Run(context.Background(), "curves", engine.Options{Seed: "1", Scale: "smoke"})
	if err != nil {
		t.Fatal(err)
	}
	b, err := engine.Run(context.Background(), "curves", engine.Options{Seed: "2", Scale: "smoke"})
	if err != nil {
		t.Fatal(err)
	}
	if a[0].Text == b[0].Text {
		t.Error("different seeds produced identical curves output")
	}
}
