package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"text/tabwriter"
)

// benchmarkDef is BENCHMARK.json: the loop length, the workloads and the
// metrics the harness reports, with each end-to-end metric's regression
// bound.
type benchmarkDef struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadBenchmark(path string) (benchmarkDef, error) {
	var def benchmarkDef
	data, err := os.ReadFile(path)
	if err != nil {
		return def, fmt.Errorf("benchmark definition: %w", err)
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return def, fmt.Errorf("benchmark definition %s: %w", path, err)
	}
	return def, nil
}

// loadSet reads a set of runs: a result file, or every *.json in a
// directory.
func loadSet(path string) ([]resultFile, error) {
	files := []string{path}
	if st, err := os.Stat(path); err != nil {
		return nil, err
	} else if st.IsDir() {
		if files, err = filepath.Glob(filepath.Join(path, "*.json")); err != nil {
			return nil, err
		}
	}
	var set []resultFile
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return nil, err
		}
		var rf resultFile
		if err := json.Unmarshal(data, &rf); err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		set = append(set, rf)
	}
	return set, nil
}

// values collects one metric of one workload across a set of runs.
func values(set []resultFile, workload, name string) []float64 {
	var xs []float64
	for _, rf := range set {
		if r, ok := rf.Workloads[workload]; ok {
			if m, ok := r.Metrics[name]; ok {
				xs = append(xs, m.Value)
			}
		}
	}
	return xs
}

// verdict judges set B against set A for one metric. worse is the
// median change in the metric's bad direction, as a share of A's
// median. A spread wider than the bound on either side leaves the
// comparison unresolved, unless every run of B beats every run of A.
func verdict(d metricDef, a, b []float64) (worse float64, v string) {
	if len(a) == 0 || len(b) == 0 {
		return math.NaN(), "missing"
	}
	sa, sb := sorted(a), sorted(b)
	worse = (median(b) - median(a)) / math.Abs(median(a))
	allBetter := sb[len(sb)-1] < sa[0]
	if d.Better == "higher" {
		worse = -worse
		allBetter = sb[0] > sa[len(sa)-1]
	}
	switch {
	case len(a) < 2 || len(b) < 2 || spread(a) > d.Bound || spread(b) > d.Bound:
		if allBetter {
			return worse, "better"
		}
		return worse, "unresolved"
	case worse > d.Bound:
		return worse, "REGRESSION"
	case worse < -d.Bound:
		return worse, "better"
	}
	return worse, "ok"
}

// compareSets prints one row per (workload, end-to-end metric) and
// reports whether any row is a regression beyond its bound.
func compareSets(def benchmarkDef, pathA, pathB string, w io.Writer) (bool, error) {
	a, err := loadSet(pathA)
	if err != nil {
		return false, err
	}
	b, err := loadSet(pathB)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tA median (n)\tB median (n)\tworse by\tbound\tA spread\tB spread\tverdict")
	breach := false
	for _, wl := range def.Workloads {
		for _, d := range def.EndToEnd {
			xa, xb := values(a, wl.Name, d.Name), values(b, wl.Name, d.Name)
			worse, v := verdict(d, xa, xb)
			breach = breach || v == "REGRESSION"
			fmt.Fprintf(tw, "%s\t%s\t%.4g (%d)\t%.4g (%d)\t%+.1f%%\t%.0f%%\t%.1f%%\t%.1f%%\t%s\n",
				wl.Name, d.Name, median(xa), len(xa), median(xb), len(xb), 100*worse, 100*d.Bound,
				100*spread(xa), 100*spread(xb), v)
		}
	}
	return breach, tw.Flush()
}
