package experiments

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"carriersense/internal/cache"
	"carriersense/internal/dist"
	"carriersense/internal/engine"
	"carriersense/internal/montecarlo"
)

var update = flag.Bool("update", false, "rewrite testdata/golden from this tree")

// goldenRegen is the one command that rewrites the golden artifacts
// after a deliberate change to them.
const goldenRegen = "go test ./internal/experiments -run TestGoldenArtifacts -update"

// goldenLeg is one set of runs whose artifacts are committed under
// testdata/golden/<name>/<scenario>/.
type goldenLeg struct {
	name      string
	scenarios []string // nil: every scenario `cs all` runs
	opts      engine.Options
	widths    []int // pool widths that must all reproduce the set; 0 is GOMAXPROCS
	// fleet runs the leg over two in-process dist workers and compares
	// it with the set of the leg named same, which -update writes.
	fleet bool
	same  string
	// cached runs each scenario twice, cold and then warm, through one
	// fresh result-cache directory, as two `cs run -cache` processes
	// would. Both runs must match the set, and the warm one must
	// evaluate nothing. Each scenario of after then runs through the
	// same warm directory and must equal an uncached run of it.
	cached bool
	after  []string
}

// goldenLegs mirror `cs all -scale smoke -seed 1` (locally and on a
// two-worker fleet), `cs run curves -scale smoke -seed 1 -set
// sigmadb=8`, `cs run tables -scale smoke -sampler auto -relerr 0.01`
// (uncached, and cold then warm under -cache, followed by curves with
// the same flags) and `cs run testbed|exposed -scale smoke -sampler
// auto -relerr 0.01`. curves-sigma8 is the one run of Figure 9's
// σ = 8 dB curves, the only one that requests core/single.
var goldenLegs = []goldenLeg{
	{name: "all", widths: []int{1, 0}},
	{name: "all-fleet", same: "all", fleet: true, widths: []int{0}},
	{name: "curves-sigma8", scenarios: []string{"curves"},
		opts: engine.Options{Sets: []string{"sigmadb=8"}}, widths: []int{1, 0}},
	{name: "tables-auto", scenarios: []string{"tables"},
		opts: engine.Options{Sampler: "auto", RelErr: 0.01}, widths: []int{0}},
	{name: "tables-auto-cache", same: "tables-auto", scenarios: []string{"tables"},
		opts: engine.Options{Sampler: "auto", RelErr: 0.01}, widths: []int{0},
		cached: true, after: []string{"curves"}},
	{name: "testbed-relerr", scenarios: []string{"testbed", "exposed"},
		opts: engine.Options{Sampler: "auto", RelErr: 0.01}, widths: []int{1, 0}},
}

// scenarioSet returns the scenarios the leg runs and the name of the
// golden set under testdata/golden that they are compared with.
func (leg goldenLeg) scenarioSet() (scenarios []string, set string) {
	scenarios = leg.scenarios
	if scenarios == nil {
		for _, sc := range engine.Scenarios() {
			scenarios = append(scenarios, sc.Name)
		}
	}
	set = leg.name
	if leg.same != "" {
		set = leg.same
	}
	return scenarios, set
}

// isGoldenArtifact reports whether a run-directory file is part of the
// deterministic record: result.json, output.txt and every CSV but
// timings.csv. metrics.json, timings.csv and manifest.json carry wall
// times.
func isGoldenArtifact(name string) bool {
	switch {
	case name == "result.json", name == "output.txt":
		return true
	case name == "timings.csv":
		return false
	}
	return strings.HasSuffix(name, ".csv")
}

// TestGoldenArtifacts reruns the golden legs and compares every
// deterministic artifact with the committed copy, byte for byte. A
// change that moves an artifact on purpose regenerates the set with
// goldenRegen and says which files moved and why.
//
// The uncached legs at -parallel 1 run over a recording executor. Each
// scenario's requests must span exactly the samples the process
// evaluated during it, so no estimation bypasses the run's executor.
// The exception is sampling, whose shoot-out runs each sampler through
// a local chain of its own on purpose. Together the all and
// curves-sigma8 legs must also request every registered kernel: a
// kernel no scenario requests is dead code.
func TestGoldenArtifacts(t *testing.T) {
	seen := map[string]bool{}
	recorded := map[string]bool{}
	for _, leg := range goldenLegs {
		scenarios, set := leg.scenarioSet()
		for _, width := range leg.widths {
			if *update && (width != leg.widths[0] || leg.same != "") {
				continue
			}
			t.Run(fmt.Sprintf("%s/parallel=%d", leg.name, width), func(t *testing.T) {
				opts := leg.opts
				opts.Seed, opts.Scale = "1", "smoke"
				if width > 0 {
					if err := montecarlo.SetMaxWorkers(width); err != nil {
						t.Fatal(err)
					}
					t.Cleanup(montecarlo.ResetMaxWorkers)
				}
				if leg.fleet {
					opts.Executor = testFleet(t)
				}
				var rec *kernelRecorder
				if width == 1 && !leg.cached {
					rec = &kernelRecorder{inner: montecarlo.Local{}, seen: seen}
					opts.Executor = rec
					recorded[leg.name] = true
				}
				if !leg.cached {
					for _, name := range scenarios {
						before := montecarlo.EvaluatedSamples()
						if rec != nil {
							rec.requested = 0
						}
						got := runArtifacts(t, name, opts)
						evaluated := montecarlo.EvaluatedSamples() - before
						if rec != nil && name != "sampling" && evaluated != rec.requested {
							t.Errorf("%s evaluated %d samples but requested %d of the run's executor: an estimation bypassed it",
								name, evaluated, rec.requested)
						}
						dir := filepath.Join("testdata", "golden", set, name)
						if *update {
							writeGolden(t, dir, got)
							continue
						}
						compareGolden(t, dir, got)
					}
					return
				}
				cacheDir := t.TempDir()
				cachedRun := func(name string) (map[string][]byte, cache.Stats) {
					c := cache.New(opts.Executor, cache.Options{Dir: cacheDir})
					o := opts
					o.Executor = c
					return runArtifacts(t, name, o), c.Stats()
				}
				for _, name := range scenarios {
					dir := filepath.Join("testdata", "golden", set, name)
					for _, run := range []string{"cold", "warm"} {
						got, st := cachedRun(name)
						compareGolden(t, dir, got)
						if run == "warm" && st.Misses != 0 {
							t.Errorf("%s: the warm run evaluated %d requests, want 0", name, st.Misses)
						}
					}
				}
				for _, name := range leg.after {
					got, _ := cachedRun(name)
					compareRuns(t, name+" through the warm cache", got, runArtifacts(t, name, opts))
				}
			})
		}
	}
	if recorded["all"] && recorded["curves-sigma8"] {
		for _, kernel := range montecarlo.KernelNames() {
			if !seen[kernel] {
				t.Errorf("kernel %s is registered, but no scenario requests it", kernel)
			}
		}
	}
}

// TestNoOrphanGoldenSets fails on a testdata/golden/<set>/<scenario>/
// directory that no golden leg compares with: after a scenario or a
// leg is deleted, its stale artifacts would otherwise stay committed
// with no test reading them.
func TestNoOrphanGoldenSets(t *testing.T) {
	compared := map[string]bool{}
	for _, leg := range goldenLegs {
		scenarios, set := leg.scenarioSet()
		for _, name := range scenarios {
			compared[filepath.Join(set, name)] = true
		}
	}
	dirs, err := filepath.Glob(filepath.Join("testdata", "golden", "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	for _, dir := range dirs {
		rel, err := filepath.Rel(filepath.Join("testdata", "golden"), dir)
		if err != nil {
			t.Fatal(err)
		}
		if !compared[rel] {
			t.Errorf("%s: no golden leg compares with this set; delete it or add the leg that writes it", dir)
		}
	}
}

// kernelRecorder is an executor that notes the kernel of every request
// it passes on to inner, counts the requests and sums the samples they
// span.
type kernelRecorder struct {
	inner     montecarlo.Executor
	mu        sync.Mutex
	seen      map[string]bool
	requests  int
	requested int64
}

// EstimateVec implements montecarlo.Executor.
func (r *kernelRecorder) EstimateVec(ctx context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	r.mu.Lock()
	r.seen[req.Kernel] = true
	r.requests++
	r.requested += int64(req.SampleSpan())
	r.mu.Unlock()
	return r.inner.EstimateVec(ctx, req)
}

// testFleet starts two dist workers on local test servers and returns
// a remote executor over them, closed with the test.
func testFleet(t *testing.T) montecarlo.Executor {
	t.Helper()
	hosts := make([]string, 2)
	for i := range hosts {
		srv := httptest.NewServer(dist.NewServer())
		t.Cleanup(srv.Close)
		hosts[i] = strings.TrimPrefix(srv.URL, "http://")
	}
	remote, err := dist.NewRemote(hosts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(remote.Close)
	return remote
}

// runArtifacts runs one scenario into a fresh directory and returns
// its deterministic artifacts by file name.
func runArtifacts(t *testing.T, name string, opts engine.Options) map[string][]byte {
	t.Helper()
	opts.OutDir = t.TempDir()
	if _, err := engine.Run(context.Background(), name, opts); err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	files, err := filepath.Glob(filepath.Join(opts.OutDir, "*", "*"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string][]byte{}
	for _, f := range files {
		if !isGoldenArtifact(filepath.Base(f)) {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		got[filepath.Base(f)] = b
	}
	return got
}

func writeGolden(t *testing.T, dir string, files map[string][]byte) {
	t.Helper()
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	for name, b := range files {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// compareGolden fails on a missing, extra or differing artifact and
// names the file and, for a difference, its first differing line.
func compareGolden(t *testing.T, dir string, got map[string][]byte) {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("%v; write the golden set with: %s", err, goldenRegen)
	}
	want := map[string][]byte{}
	for _, e := range entries {
		if want[e.Name()], err = os.ReadFile(filepath.Join(dir, e.Name())); err != nil {
			t.Fatal(err)
		}
	}
	if compareRuns(t, dir, got, want) {
		t.Logf("if the change is intended, regenerate with: %s", goldenRegen)
	}
}

// compareRuns fails on every artifact that only one of two runs wrote
// or that differs between them, naming for a difference its first
// differing line. It reports whether anything failed.
func compareRuns(t *testing.T, label string, got, want map[string][]byte) (failed bool) {
	t.Helper()
	for _, name := range sortedNames(got) {
		if _, ok := want[name]; !ok {
			t.Errorf("%s: %s: new artifact", label, name)
			failed = true
		}
	}
	for _, name := range sortedNames(want) {
		b, ok := got[name]
		if !ok {
			t.Errorf("%s: %s: the run no longer writes this artifact", label, name)
			failed = true
			continue
		}
		if bytes.Equal(b, want[name]) {
			continue
		}
		line, gotLine, wantLine := firstDiff(b, want[name])
		t.Errorf("%s: %s differs at line %d:\n got  %q\n want %q", label, name, line, gotLine, wantLine)
		failed = true
	}
	return failed
}

func sortedNames(files map[string][]byte) []string {
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// firstDiff returns the 1-based number of the first line where a and b
// differ, and that line of each ("" past the end).
func firstDiff(a, b []byte) (int, string, string) {
	la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	for i := 0; ; i++ {
		var x, y string
		if i < len(la) {
			x = la[i]
		}
		if i < len(lb) {
			y = lb[i]
		}
		if x != y || i >= len(la) || i >= len(lb) {
			return i + 1, x, y
		}
	}
}

// TestMaxSamplesLeavesExactCombosAlone runs exposed under -relerr with
// and without a -max-samples cap. A testbed combo is an exact kernel:
// more samples would replay the same simulation, so the cap must not
// grow it. Every sampling.csv row keeps budget and spend 1, and the
// artifacts equal the uncapped run's.
func TestMaxSamplesLeavesExactCombosAlone(t *testing.T) {
	opts := engine.Options{Seed: "1", Scale: "smoke", Sampler: "auto", RelErr: 0.01}
	want := runArtifacts(t, "exposed", opts)
	opts.MaxSamples = 8192
	got := runArtifacts(t, "exposed", opts)
	rows := strings.Split(strings.TrimSpace(string(got["sampling.csv"])), "\n")
	if len(rows) < 2 {
		t.Fatalf("sampling.csv has no combo rows:\n%s", got["sampling.csv"])
	}
	for _, row := range rows[1:] {
		f := strings.Split(row, ",")
		if f[0] != "testbed/combo" || f[3] != "1" || f[4] != "1" {
			t.Errorf("combo row %q: want kernel testbed/combo, budget 1, spent 1", row)
		}
	}
	for name, b := range want {
		if !bytes.Equal(got[name], b) {
			line, gotLine, wantLine := firstDiff(got[name], b)
			t.Errorf("%s differs under -max-samples at line %d:\n got  %q\n want %q", name, line, gotLine, wantLine)
		}
	}
	if len(got) != len(want) {
		t.Errorf("-max-samples wrote %d artifacts, want %d", len(got), len(want))
	}
}
