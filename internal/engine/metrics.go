package engine

// The run's observability artifacts: metrics.json (run summary +
// per-variant + whole-run registry deltas) and timings.csv (flat
// per-variant per-stage rows, CSV-friendly for the paper-artifact
// pipeline). Both are volatile by nature — wall-clock seconds differ
// run to run — so they are deliberately separate files from the
// deterministic artifacts (output.txt, result.json, data CSVs), which
// must stay byte-identical with observability on or off.

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"carriersense/internal/obs"
)

var mEstimateSeconds = obs.Default().Histogram("cs_engine_estimate_seconds",
	"Wall time of one kernel estimation through the run's executor chain.", nil)

// runSummary is what `cs` historically printed to stderr and nowhere
// else: now persisted per run directory so artifacts self-describe.
type runSummary struct {
	Elapsed          time.Duration
	EvaluatedSamples int64
	RegistryDelta    map[string]float64
}

// variantMetrics is one variant's entry in metrics.json.
type variantMetrics struct {
	Variant     string             `json:"variant,omitempty"`
	WallSeconds float64            `json:"wall_seconds"`
	Registry    map[string]float64 `json:"registry,omitempty"`
}

// runMetrics is the metrics.json document.
type runMetrics struct {
	Scenario         string             `json:"scenario"`
	ElapsedSeconds   float64            `json:"elapsed_seconds"`
	EvaluatedSamples int64              `json:"evaluated_samples"`
	SamplesPerSec    float64            `json:"samples_per_sec"`
	Variants         []variantMetrics   `json:"variants"`
	Registry         map[string]float64 `json:"registry,omitempty"`
}

// stage maps a registry histogram family to a timings.csv stage row.
// Sum keys match by prefix so labeled families (per-worker dispatch
// histograms) aggregate across their label sets.
var timingStages = []struct{ stage, family string }{
	{"estimate", "cs_engine_estimate_seconds"},
	{"eval", "cs_mc_shard_eval_seconds"},
	{"dispatch", "cs_dist_batch_seconds"},
	{"cache_lookup", "cs_cache_lookup_seconds"},
}

// writeRunMetrics writes metrics.json and timings.csv into the run
// directory.
func writeRunMetrics(runDir, scenario string, results []*Result, sum runSummary) error {
	doc := runMetrics{
		Scenario:         scenario,
		ElapsedSeconds:   sum.Elapsed.Seconds(),
		EvaluatedSamples: sum.EvaluatedSamples,
		Registry:         sum.RegistryDelta,
	}
	if secs := sum.Elapsed.Seconds(); secs > 0 {
		doc.SamplesPerSec = float64(sum.EvaluatedSamples) / secs
	}
	for _, res := range results {
		doc.Variants = append(doc.Variants, variantMetrics{
			Variant:     res.Variant,
			WallSeconds: res.Perf["wall_seconds"],
			Registry:    res.Perf,
		})
	}
	js, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal run metrics: %w", err)
	}
	if err := os.WriteFile(filepath.Join(runDir, "metrics.json"), append(js, '\n'), 0o644); err != nil {
		return err
	}

	rows := [][]string{{"variant", "stage", "seconds", "count"}}
	for _, res := range results {
		rows = append(rows, timingRows(res.Variant, res.Perf)...)
	}
	f, err := os.Create(filepath.Join(runDir, "timings.csv"))
	if err != nil {
		return err
	}
	w := csv.NewWriter(f)
	if err := w.WriteAll(rows); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timingRows flattens one variant's registry delta into per-stage
// rows. The wall row always exists; instrument stages appear when the
// variant exercised them (a purely closed-form variant has no eval
// row, a local run no dispatch row).
func timingRows(variant string, perf map[string]float64) [][]string {
	fmtSec := func(v float64) string { return strconv.FormatFloat(v, 'g', 9, 64) }
	rows := [][]string{{variant, "wall", fmtSec(perf["wall_seconds"]), "1"}}
	for _, st := range timingStages {
		secs := obs.SumByPrefix(perf, st.family+"_sum")
		count := obs.SumByPrefix(perf, st.family+"_count")
		if count == 0 && secs == 0 {
			continue
		}
		rows = append(rows, []string{
			variant, st.stage, fmtSec(secs), strconv.FormatInt(int64(count), 10),
		})
	}
	// Per-worker dispatch breakdown: one row per worker label so fleet
	// imbalance is visible without parsing metrics.json.
	workers := make([]string, 0)
	for k := range perf {
		if name, lbls, ok := splitSeries(k, "cs_dist_batch_seconds_sum"); ok && name != "" {
			workers = append(workers, lbls)
		}
	}
	sort.Strings(workers)
	for _, lbls := range workers {
		rows = append(rows, []string{
			variant, "dispatch " + lbls,
			fmtSec(perf["cs_dist_batch_seconds_sum"+lbls]),
			strconv.FormatInt(int64(perf["cs_dist_batch_seconds_count"+lbls]), 10),
		})
	}
	return rows
}

// splitSeries reports whether key is family{labels} and returns the
// parts ("" labels for the unlabeled series).
func splitSeries(key, family string) (name, labels string, ok bool) {
	if len(key) < len(family) || key[:len(family)] != family {
		return "", "", false
	}
	rest := key[len(family):]
	if rest == "" {
		return family, "", true
	}
	if rest[0] == '{' {
		return family, rest, true
	}
	return "", "", false
}
