package exp

// Analysis: regenerate aggregate CSVs from manifested run
// directories. Every run is verified against its
// manifest first — a tampered or drifted run dir fails the whole
// analysis rather than silently skewing a mean.

import (
	"encoding/csv"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"carriersense/internal/prov"
)

// AnalysisDir is created under the analyzed root.
const AnalysisDir = "analysis"

// runRow is one (run, variant) observation extracted from a manifest.
type runRow struct {
	Experiment string
	Repeat     int
	Scenario   string
	Variant    string
	Seed       string
	Sampler    string
	Scale      string
	Revision   string
	Wall       float64
	Metrics    map[string]float64
}

// Analyze verifies and aggregates every manifested run under root,
// writing analysis/{summary_runs.csv, summary_grouped.csv}. Log (nil
// ok) receives one line per verified run.
func Analyze(root string, log io.Writer) error {
	dirs, err := prov.FindManifests(root)
	if err != nil {
		return err
	}
	if len(dirs) == 0 {
		return fmt.Errorf("exp: no manifested runs under %s (run `cs exp run` first)", root)
	}
	var rows []runRow
	for _, dir := range dirs {
		m, err := prov.VerifyDir(dir)
		if err != nil {
			return fmt.Errorf("exp: refusing to analyze: %w", err)
		}
		if log != nil {
			fmt.Fprintf(log, "verified %s (%d artifacts)\n", dir, len(m.Artifacts))
		}
		expName := m.Exec.Experiment
		if expName == "" {
			// Ad-hoc `cs run -out` dirs have no grid coordinates; group
			// them by their parent directory name.
			expName = filepath.Base(filepath.Dir(dir))
		}
		for _, v := range m.Variants {
			rows = append(rows, runRow{
				Experiment: expName,
				Repeat:     m.Exec.Repeat,
				Scenario:   m.Scenario,
				Variant:    v.Variant,
				Seed:       m.Seed,
				Sampler:    m.Sampler,
				Scale:      m.Scale,
				Revision:   m.VCS.Revision,
				Wall:       v.WallSeconds,
				Metrics:    v.Metrics,
			})
		}
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].Experiment != rows[j].Experiment {
			return rows[i].Experiment < rows[j].Experiment
		}
		if rows[i].Variant != rows[j].Variant {
			return rows[i].Variant < rows[j].Variant
		}
		return rows[i].Repeat < rows[j].Repeat
	})

	outDir := filepath.Join(root, AnalysisDir)
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	if err := writeRunsCSV(filepath.Join(outDir, "summary_runs.csv"), rows); err != nil {
		return err
	}
	groups := groupRows(rows)
	if err := writeGroupedCSV(filepath.Join(outDir, "summary_grouped.csv"), groups); err != nil {
		return err
	}
	if log != nil {
		fmt.Fprintf(log, "analysis: %d runs, %d groups -> %s\n", len(rows), len(groups), outDir)
	}
	return nil
}

func writeRunsCSV(path string, rows []runRow) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	out := [][]string{{"experiment", "repeat", "scenario", "variant", "seed", "sampler", "scale", "metric", "value", "wall_seconds", "revision"}}
	for _, r := range rows {
		for _, name := range sortedKeys(r.Metrics) {
			out = append(out, []string{
				r.Experiment, strconv.Itoa(r.Repeat), r.Scenario, r.Variant,
				r.Seed, r.Sampler, r.Scale, name, formatG(r.Metrics[name]),
				formatG(r.Wall), r.Revision,
			})
		}
	}
	if err := w.WriteAll(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// group is one (experiment, variant, metric) cell's statistics.
type group struct {
	Experiment, Variant, Metric string
	Values                      []float64
}

func (g *group) n() int        { return len(g.Values) }
func (g *group) mean() float64 { return sum(g.Values) / float64(len(g.Values)) }
func (g *group) std() float64 {
	if len(g.Values) < 2 {
		return 0
	}
	m := g.mean()
	var ss float64
	for _, v := range g.Values {
		ss += (v - m) * (v - m)
	}
	return math.Sqrt(ss / float64(len(g.Values)-1))
}
func (g *group) min() float64 { return extremum(g.Values, math.Min) }
func (g *group) max() float64 { return extremum(g.Values, math.Max) }

func groupRows(rows []runRow) []*group {
	byKey := map[string]*group{}
	var order []string
	for _, r := range rows {
		for _, name := range sortedKeys(r.Metrics) {
			key := r.Experiment + "\x00" + r.Variant + "\x00" + name
			g := byKey[key]
			if g == nil {
				g = &group{Experiment: r.Experiment, Variant: r.Variant, Metric: name}
				byKey[key] = g
				order = append(order, key)
			}
			g.Values = append(g.Values, r.Metrics[name])
		}
	}
	sort.Strings(order)
	groups := make([]*group, 0, len(order))
	for _, key := range order {
		groups = append(groups, byKey[key])
	}
	return groups
}

func writeGroupedCSV(path string, groups []*group) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	out := [][]string{{"experiment", "variant", "metric", "n", "mean", "std", "min", "max"}}
	for _, g := range groups {
		out = append(out, []string{
			g.Experiment, g.Variant, g.Metric, strconv.Itoa(g.n()),
			formatG(g.mean()), formatG(g.std()), formatG(g.min()), formatG(g.max()),
		})
	}
	if err := w.WriteAll(out); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func formatG(v float64) string { return strconv.FormatFloat(v, 'g', 9, 64) }

func sum(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s
}

func extremum(vs []float64, pick func(a, b float64) float64) float64 {
	out := vs[0]
	for _, v := range vs[1:] {
		out = pick(out, v)
	}
	return out
}

func sortedKeys[M ~map[string]V, V any](m M) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
