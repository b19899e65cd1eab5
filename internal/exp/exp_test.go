package exp

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"carriersense/internal/engine"
	"carriersense/internal/prov"
)

type gridStubParams struct {
	Seed uint64
	Gain float64
}

func registerGridStub(t *testing.T, name string) {
	t.Helper()
	engine.Register(engine.Scenario{
		Name:        name,
		Description: "exp test stub",
		Figures:     "none",
		NewParams:   func() any { return &gridStubParams{Seed: 1, Gain: 2} },
		Run: func(rc *engine.RunContext) error {
			p := rc.Params.(*gridStubParams)
			rc.Printf("seed=%d gain=%g\n", p.Seed, p.Gain)
			// Seed-dependent metric so repeats (distinct seeds) produce
			// distinct observations for the grouped statistics.
			rc.Metric("gain", p.Gain+float64(p.Seed%10)/100)
			rc.CSV("data", []string{"a"}, [][]string{{"1"}})
			return nil
		},
	})
}

func writeGrid(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "experiments.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestLoadGridValidates(t *testing.T) {
	for _, bad := range []string{
		`{"experiments": []}`,
		`{"experiments": [{"scenario": "x"}]}`,
		`{"experiments": [{"name": "a", "scenario": "x"}, {"name": "a", "scenario": "x"}]}`,
		`{"experiments": [{"name": "a"}]}`,
	} {
		if _, err := LoadGrid(writeGrid(t, bad)); err == nil {
			t.Errorf("grid %s loaded without error", bad)
		}
	}
}

func TestResolveInheritsDefaults(t *testing.T) {
	g, err := LoadGrid(writeGrid(t, `{
		"defaults": {"scenario": "base", "repeats": 3, "seed": 7, "scale": "smoke", "set": ["gain=5"]},
		"experiments": [
			{"name": "plain"},
			{"name": "custom", "scenario": "other", "repeats": 1, "seed": 9, "set": ["gain=6"]}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	plain := g.resolve(g.Experiments[0])
	if plain.Scenario != "base" || plain.Repeats != 3 || *plain.Seed != 7 || plain.Scale != "smoke" {
		t.Fatalf("plain did not inherit defaults: %+v", plain)
	}
	custom := g.resolve(g.Experiments[1])
	if custom.Scenario != "other" || custom.Repeats != 1 || *custom.Seed != 9 {
		t.Fatalf("custom overrides lost: %+v", custom)
	}
	// Default sets come first so experiment-level ones win (engine
	// applies them in order).
	if len(custom.Set) != 2 || custom.Set[0] != "gain=5" || custom.Set[1] != "gain=6" {
		t.Fatalf("set concatenation wrong: %v", custom.Set)
	}
}

// Acceptance criterion: `cs exp run` on a small grid followed by
// `cs verify` passes on every run dir, and analyze regenerates the
// aggregate artifacts.
func TestRunGridStampsVerifiableRunsAndAnalyzes(t *testing.T) {
	registerGridStub(t, "exp-stub")
	g, err := LoadGrid(writeGrid(t, `{
		"defaults": {"scenario": "exp-stub", "scale": "smoke", "seed": 40},
		"experiments": [
			{"name": "lowgain", "repeats": 2, "set": ["gain=1"]},
			{"name": "highgain", "repeats": 2, "set": ["gain=9"]}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	dirs, err := RunGrid(context.Background(), g, RunOptions{Out: out})
	if err != nil {
		t.Fatal(err)
	}
	if len(dirs) != 4 {
		t.Fatalf("ran %d dirs, want 4: %v", len(dirs), dirs)
	}
	// The grid file is copied beside the runs.
	if _, err := os.Stat(filepath.Join(out, GridFileName)); err != nil {
		t.Fatalf("grid copy missing: %v", err)
	}
	seeds := map[string]bool{}
	for _, dir := range dirs {
		m, err := prov.VerifyDir(dir)
		if err != nil {
			t.Fatalf("run dir fails verification: %v", err)
		}
		if m.Exec.Experiment == "" {
			t.Fatalf("manifest missing experiment coordinate: %+v", m.Exec)
		}
		seeds[m.Exec.Experiment+"/"+m.Seed] = true
	}
	// Each repeat must have its own derived seed (40, 41 per experiment).
	for _, want := range []string{"lowgain/40", "lowgain/41", "highgain/40", "highgain/41"} {
		if !seeds[want] {
			t.Errorf("missing repeat seed %s (have %v)", want, seeds)
		}
	}

	if err := Analyze(out, nil); err != nil {
		t.Fatal(err)
	}
	grouped, err := os.ReadFile(filepath.Join(out, AnalysisDir, "summary_grouped.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"lowgain", "highgain", ",gain,2,"} {
		if !strings.Contains(string(grouped), want) {
			t.Errorf("summary_grouped.csv missing %q:\n%s", want, grouped)
		}
	}
	runs, err := os.ReadFile(filepath.Join(out, AnalysisDir, "summary_runs.csv"))
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(string(runs), "\n"); n != 5 { // header + 4 observations
		t.Errorf("summary_runs.csv has %d lines, want 5:\n%s", n, runs)
	}
}

// Analysis must refuse a tampered run rather than average it in.
func TestAnalyzeRefusesTamperedRun(t *testing.T) {
	registerGridStub(t, "exp-tamper-stub")
	g, err := LoadGrid(writeGrid(t, `{
		"experiments": [{"name": "one", "scenario": "exp-tamper-stub", "scale": "smoke", "seed": 1}]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	dirs, err := RunGrid(context.Background(), g, RunOptions{Out: out})
	if err != nil {
		t.Fatal(err)
	}
	target := filepath.Join(dirs[0], "result.json")
	raw, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x01
	if err := os.WriteFile(target, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	err = Analyze(out, nil)
	if err == nil || !strings.Contains(err.Error(), "refusing to analyze") {
		t.Fatalf("Analyze on tampered run: %v, want refusal", err)
	}
}
