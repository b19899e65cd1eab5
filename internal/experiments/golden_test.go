package experiments

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"carriersense/internal/engine"
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
}

// goldenLegs mirror `cs all -scale smoke -seed 1`, `cs run tables
// -scale smoke -sampler auto -relerr 0.01` and `cs run curves -scale
// smoke -sampler cv -relerr 0.01`.
var goldenLegs = []goldenLeg{
	{name: "all", widths: []int{1, 0}},
	{name: "tables-auto", scenarios: []string{"tables"},
		opts: engine.Options{Sampler: "auto", RelErr: 0.01}, widths: []int{0}},
	{name: "curves-cv", scenarios: []string{"curves"},
		opts: engine.Options{Sampler: "cv", RelErr: 0.01}, widths: []int{0}},
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
func TestGoldenArtifacts(t *testing.T) {
	for _, leg := range goldenLegs {
		scenarios := leg.scenarios
		if scenarios == nil {
			for _, sc := range engine.Scenarios() {
				// report re-runs the catalog; `cs all` skips it too.
				if sc.Name != "report" {
					scenarios = append(scenarios, sc.Name)
				}
			}
		}
		for _, width := range leg.widths {
			if *update && width != leg.widths[0] {
				continue
			}
			t.Run(fmt.Sprintf("%s/parallel=%d", leg.name, width), func(t *testing.T) {
				for _, name := range scenarios {
					opts := leg.opts
					opts.Seed, opts.Scale, opts.Parallel = "1", "smoke", width
					got := runArtifacts(t, name, opts)
					dir := filepath.Join("testdata", "golden", leg.name, name)
					if *update {
						writeGolden(t, dir, got)
						continue
					}
					compareGolden(t, dir, got)
				}
			})
		}
	}
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
	var want []string
	for _, e := range entries {
		want = append(want, e.Name())
	}
	for name := range got {
		if !slices.Contains(want, name) {
			t.Errorf("%s: new artifact with no golden copy; if intended, regenerate with: %s", filepath.Join(dir, name), goldenRegen)
		}
	}
	for _, name := range want {
		path := filepath.Join(dir, name)
		b, ok := got[name]
		if !ok {
			t.Errorf("%s: the run no longer writes this artifact", path)
			continue
		}
		golden, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if bytes.Equal(b, golden) {
			continue
		}
		line, gotLine, wantLine := firstDiff(b, golden)
		t.Errorf("%s differs at line %d:\n got  %q\n want %q\nif the change is intended, regenerate with: %s",
			path, line, gotLine, wantLine, goldenRegen)
	}
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
