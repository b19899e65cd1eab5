package carriersense_bench

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"slices"
	"strings"
	"testing"
)

// perfSnapshot is a committed benchmark snapshot that carries a
// spread: every result file the harness wrote with -out, traced and
// untraced, over several seeds, for the parent commit and the change.
type perfSnapshot struct {
	Parent []snapRun `json:"parent"`
	Change []snapRun `json:"change"`
}

// snapRun is the part of one harness result file the table reads.
type snapRun struct {
	Provenance struct {
		Trace bool `json:"trace"`
	} `json:"provenance"`
	Workloads map[string]struct {
		Metrics map[string]struct {
			Value float64 `json:"value"`
		} `json:"metrics"`
	} `json:"workloads"`
}

// snapRow is one table row: a metric of a workload, from the untraced
// runs (end to end) or the traced ones (per layer).
type snapRow struct {
	workload, metric string
	traced           bool
}

// inverseNormalRows are the rows of README's inverse-normal table:
// every workload end to end, then the sampled path's layers on
// tables-relerr.
var inverseNormalRows = []snapRow{
	{"tables-relerr", "run_p50_ref", false},
	{"tables-relerr", "samples_per_ref", false},
	{"tables-relerr", "alloc_mb_per_run", false},
	{"tables-relerr", "peak_rss_mb", false},
	{"tables-fixed", "run_p50_ref", false},
	{"testbed", "run_p50_ref", false},
	{"fleet-cache", "run_p50_ref", false},
	{"tables-relerr", "rng.ns_per_sample", true},
	{"tables-relerr", "core.ns_per_sample.averages", true},
	{"tables-relerr", "core.ns_per_sample.policy-diff", true},
	{"tables-relerr", "sampling.samples_to_target", true},
}

// snapValues collects one row's values across runs.
func snapValues(runs []snapRun, r snapRow) []float64 {
	var xs []float64
	for _, run := range runs {
		if run.Provenance.Trace != r.traced {
			continue
		}
		if m, ok := run.Workloads[r.workload].Metrics[r.metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	slices.Sort(xs)
	return xs
}

func snapMedian(xs []float64) float64 {
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// snapNum renders a value to four significant digits, and a large one
// (a sample count) in whole units.
func snapNum(x float64) string {
	if math.Abs(x) >= 1000 {
		return fmt.Sprintf("%.0f", x)
	}
	return fmt.Sprintf("%.4g", x)
}

// snapCell renders "median [min–max] (n)".
func snapCell(xs []float64) string {
	return fmt.Sprintf("%s [%s–%s] (%d)", snapNum(snapMedian(xs)), snapNum(xs[0]), snapNum(xs[len(xs)-1]), len(xs))
}

// renderSnapshotTable renders rows of a snapshot as README's fenced
// table: each side's median, range and run count, and the change in
// the medians.
func renderSnapshotTable(s perfSnapshot, rows []snapRow) (string, error) {
	var b strings.Builder
	b.WriteString("```\n")
	fmt.Fprintf(&b, "%-14s %-42s %-29s %-29s %s\n", "workload", "metric", "parent", "this change", "change")
	for _, r := range rows {
		p, c := snapValues(s.Parent, r), snapValues(s.Change, r)
		if len(p) == 0 || len(c) == 0 {
			return "", fmt.Errorf("snapshot has no %s %s (traced %v) on one side", r.workload, r.metric, r.traced)
		}
		metric := r.metric
		if r.traced {
			metric += " (-trace 1)"
		}
		fmt.Fprintf(&b, "%-14s %-42s %-29s %-29s %+.1f%%\n", r.workload, metric, snapCell(p), snapCell(c),
			100*(snapMedian(c)/snapMedian(p)-1))
	}
	b.WriteString("```\n")
	return b.String(), nil
}

// sharedDrawsRows are the rows of README's table for a tables row's
// shared draws: the claimed workload end to end, the other workloads'
// medians (tables-relerr's with its wall time and reference loop), then
// the layer that moved on tables-fixed, kernel evaluation, as work
// counts and ns/sample.
var sharedDrawsRows = []snapRow{
	{"tables-fixed", "run_p50_ref", false},
	{"tables-fixed", "run_p75_ref", false},
	{"tables-fixed", "samples_per_ref", false},
	{"tables-fixed", "alloc_mb_per_run", false},
	{"tables-fixed", "peak_rss_mb", false},
	{"fleet-cache", "run_p50_ref", false},
	{"fleet-cache", "alloc_mb_per_run", false},
	{"tables-relerr", "run_p50_ref", false},
	{"tables-relerr", "run_p75_ref", false},
	{"tables-relerr", "run_p50_s", false},
	{"tables-relerr", "ref_ms_p50", false},
	{"testbed", "run_p50_ref", false},
	{"tables-fixed", "engine.estimates_per_run", true},
	{"tables-fixed", "montecarlo.shards_per_run", true},
	{"tables-fixed", "core.ns_per_sample", true},
	{"tables-relerr", "sampling.samples_to_target", true},
}

// checkREADMETable fails unless README.md contains the table the
// snapshot file renders rows to. When the snapshot or the rows change,
// paste the block the failure prints into README.
func checkREADMETable(t *testing.T, file string, rows []snapRow) {
	t.Helper()
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var s perfSnapshot
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	table, err := renderSnapshotTable(s, rows)
	if err != nil {
		t.Fatal(err)
	}
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), table) {
		t.Errorf("README.md does not contain the table %s renders to:\n%s", file, table)
	}
}

// TestREADMEInverseNormalTable checks README's AS241 table against
// BENCH_20261019.json.
func TestREADMEInverseNormalTable(t *testing.T) {
	checkREADMETable(t, "BENCH_20261019.json", inverseNormalRows)
}

// TestREADMESharedDrawsTable checks README's table for a tables row's
// shared draws against BENCH_20261020c.json.
func TestREADMESharedDrawsTable(t *testing.T) {
	checkREADMETable(t, "BENCH_20261020c.json", sharedDrawsRows)
}

// survivalRows are the rows of README's table for the PHY's bracketed
// survival decision: testbed end to end, the other workloads' medians,
// then testbed's combo layer, where the packet simulation runs.
var survivalRows = []snapRow{
	{"testbed", "run_p50_ref", false},
	{"testbed", "run_p75_ref", false},
	{"testbed", "runs_per_ref", false},
	{"testbed", "samples_per_ref", false},
	{"testbed", "setup_s", false},
	{"testbed", "alloc_mb_per_run", false},
	{"testbed", "peak_rss_mb", false},
	{"tables-fixed", "run_p50_ref", false},
	{"tables-relerr", "run_p50_ref", false},
	{"fleet-cache", "run_p50_ref", false},
	{"testbed", "testbed.combos_per_run", true},
	{"testbed", "testbed.combo_ms_p50", true},
	{"testbed", "engine.self_ms_p50", true},
}

// TestREADMESurvivalTable checks README's table for the bracketed
// survival decision against BENCH_20261019c.json.
func TestREADMESurvivalTable(t *testing.T) {
	checkREADMETable(t, "BENCH_20261019c.json", survivalRows)
}

// drawMemoRows are the rows of README's table for the threshold
// search's draw memo: the claimed workload end to end, the other
// workloads' medians, allocation and peak RSS, then the layers: the
// pool's time per estimate in the measured loop, where searches run in
// their scopes, the replay's unscoped ns/sample, and the counts that
// must repeat exactly.
var drawMemoRows = []snapRow{
	{"tables-relerr", "run_p50_ref", false},
	{"tables-relerr", "run_p75_ref", false},
	{"tables-relerr", "samples_per_ref", false},
	{"tables-relerr", "alloc_mb_per_run", false},
	{"tables-relerr", "peak_rss_mb", false},
	{"tables-fixed", "run_p50_ref", false},
	{"tables-fixed", "alloc_mb_per_run", false},
	{"tables-fixed", "peak_rss_mb", false},
	{"testbed", "run_p50_ref", false},
	{"fleet-cache", "run_p50_ref", false},
	{"tables-relerr", "montecarlo.estimate_ms_p50", true},
	{"tables-fixed", "montecarlo.estimate_ms_p50", true},
	{"tables-relerr", "core.ns_per_sample.policy-diff", true},
	{"tables-fixed", "core.ns_per_sample.policy-diff", true},
	{"tables-relerr", "engine.estimates_per_run", true},
	{"tables-relerr", "montecarlo.shards_per_run", true},
	{"tables-relerr", "sampling.samples_to_target", true},
	{"tables-relerr", "sampling.pilot_samples", true},
}

// TestREADMEDrawMemoTable checks README's table for the threshold
// search's draw memo against BENCH_20261019d.json.
func TestREADMEDrawMemoTable(t *testing.T) {
	checkREADMETable(t, "BENCH_20261019d.json", drawMemoRows)
}

// fleetMemoRows are the rows of README's table for the process-wide
// draw memo: the claimed workload end to end, the other workloads'
// medians and peak RSS, then the layers: the fleet's time per estimate
// and per shard, where workers now hit stored records, and the traced
// replay's policy-diff ns/sample, which now reads memo hits, and the
// counts that must repeat exactly.
var fleetMemoRows = []snapRow{
	{"fleet-cache", "run_p50_ref", false},
	{"fleet-cache", "run_p75_ref", false},
	{"fleet-cache", "runs_per_ref", false},
	{"fleet-cache", "samples_per_ref", false},
	{"fleet-cache", "alloc_mb_per_run", false},
	{"fleet-cache", "peak_rss_mb", false},
	{"tables-fixed", "run_p50_ref", false},
	{"tables-fixed", "alloc_mb_per_run", false},
	{"tables-fixed", "peak_rss_mb", false},
	{"tables-relerr", "run_p50_ref", false},
	{"tables-relerr", "alloc_mb_per_run", false},
	{"tables-relerr", "peak_rss_mb", false},
	{"testbed", "run_p50_ref", false},
	{"fleet-cache", "dist.estimate_ms_p50", true},
	{"fleet-cache", "dist.us_per_shard", true},
	{"fleet-cache", "core.ns_per_sample.policy-diff", true},
	{"tables-fixed", "core.ns_per_sample.policy-diff", true},
	{"fleet-cache", "engine.estimates_per_run", true},
	{"fleet-cache", "montecarlo.shards_per_run", true},
}

// TestREADMEFleetMemoTable checks README's table for the process-wide
// draw memo against BENCH_20261020b.json.
func TestREADMEFleetMemoTable(t *testing.T) {
	checkREADMETable(t, "BENCH_20261020b.json", fleetMemoRows)
}

// samplingLane is a snapshot's samples-to-target lane: each scenario's
// sampling_spent, pilots included, driven to the lane's relative-error
// target under each sampler, auto cold.
type samplingLane struct {
	Sampling struct {
		Scenarios []struct {
			Scenario                       string
			Plain, Stratified, Sobol, Auto float64
		} `json:"scenarios"`
	} `json:"sampling"`
}

// thousands renders a count with comma separators.
func thousands(x float64) string {
	s := fmt.Sprintf("%.0f", x)
	for i := len(s) - 3; i > 0; i -= 3 {
		s = s[:i] + "," + s[i:]
	}
	return s
}

// renderSamplesToTarget renders a sampling lane as README's markdown
// table: plain's count, then each other sampler's with its change
// against plain.
func renderSamplesToTarget(l samplingLane) string {
	var b strings.Builder
	b.WriteString("| Scenario | plain | stratified | sobol | auto (cold) |\n|---|---|---|---|---|\n")
	for _, s := range l.Sampling.Scenarios {
		cell := func(x float64) string {
			pct := strings.Replace(fmt.Sprintf("%+.0f%%", 100*(x/s.Plain-1)), "-", "−", 1)
			return thousands(x) + " (" + pct + ")"
		}
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s | %s |\n",
			s.Scenario, thousands(s.Plain), cell(s.Stratified), cell(s.Sobol), cell(s.Auto))
	}
	return b.String()
}

// TestREADMESamplesToTargetTable checks README's samples-to-target
// table against BENCH_20261022.json's sampling lane.
func TestREADMESamplesToTargetTable(t *testing.T) {
	data, err := os.ReadFile("BENCH_20261022.json")
	if err != nil {
		t.Fatal(err)
	}
	var l samplingLane
	if err := json.Unmarshal(data, &l); err != nil {
		t.Fatal(err)
	}
	if len(l.Sampling.Scenarios) == 0 {
		t.Fatal("BENCH_20261022.json has no sampling lane")
	}
	table := renderSamplesToTarget(l)
	readme, err := os.ReadFile("README.md")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(readme), table) {
		t.Errorf("README.md does not contain the table BENCH_20261022.json's sampling lane renders to:\n%s", table)
	}
}

// probePilotRows are the rows of README's table for auto's staged
// pilot: the claimed workload end to end, the other workloads' medians,
// then the layers on tables-relerr: the pilot's samples, the shards and
// estimate tail of the montecarlo layer the pilots run in, and the
// engine's self time.
var probePilotRows = []snapRow{
	{"tables-relerr", "run_p50_ref", false},
	{"tables-relerr", "run_p75_ref", false},
	{"tables-relerr", "runs_per_ref", false},
	{"tables-relerr", "samples_per_ref", false},
	{"tables-relerr", "run_p50_s", false},
	{"tables-relerr", "alloc_mb_per_run", false},
	{"tables-relerr", "peak_rss_mb", false},
	{"tables-fixed", "run_p50_ref", false},
	{"fleet-cache", "run_p50_ref", false},
	{"testbed", "run_p50_ref", false},
	{"tables-relerr", "sampling.pilot_samples", true},
	{"tables-relerr", "montecarlo.shards_per_run", true},
	{"tables-relerr", "montecarlo.estimate_ms_p99", true},
	{"tables-relerr", "engine.self_ms_p50", true},
}

// TestREADMEProbePilotTable checks README's table for auto's staged
// pilot against BENCH_20261022.json.
func TestREADMEProbePilotTable(t *testing.T) {
	checkREADMETable(t, "BENCH_20261022.json", probePilotRows)
}
