package prov

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const oldSnapshot = `{
  "date": "2026-08-01T00:00:00Z",
  "go": "go1.24.0",
  "bench": "go test -bench .",
  "cpu": "TestCPU",
  "commit": "aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa",
  "dirty": false,
  "benchmarks": [
    {"name": "BenchmarkPacketSimSecond", "iterations": 1, "ns_per_op": 1000, "metrics": {"allocs/op": 100}}
  ],
  "sim": {
    "events_per_sec": 1000000,
    "allocs_per_event": 0.5
  },
  "dist": {
    "local_us_per_shard": 100,
    "prefetch_hit_rate": 1.0
  },
  "sampling": {
    "target_relerr": 0.005,
    "scenarios": [
      {"scenario": "curves", "plain": 1000, "sobol": 500, "sobol_savings_pct": 50.0}
    ]
  }
}`

const newSnapshot = `{
  "date": "2026-08-08T00:00:00Z",
  "go": "go1.24.0",
  "bench": "go test -bench .",
  "cpu": "TestCPU",
  "commit": "bbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbbb",
  "dirty": true,
  "benchmarks": [
    {"name": "BenchmarkPacketSimSecond", "iterations": 1, "ns_per_op": 1300, "metrics": {"allocs/op": 100}}
  ],
  "sim": {
    "events_per_sec": 2000000,
    "allocs_per_event": 1.5
  },
  "dist": {
    "local_us_per_shard": 101,
    "prefetch_hit_rate": 0.5
  },
  "sampling": {
    "target_relerr": 0.005,
    "scenarios": [
      {"scenario": "curves", "plain": 1000, "sobol": 500, "sobol_savings_pct": 50.0}
    ]
  }
}`

func writeSnapshots(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	oldPath := filepath.Join(dir, "BENCH_old.json")
	newPath := filepath.Join(dir, "BENCH_new.json")
	if err := os.WriteFile(oldPath, []byte(oldSnapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(newPath, []byte(newSnapshot), 0o644); err != nil {
		t.Fatal(err)
	}
	return oldPath, newPath
}

func TestLoadBenchFlattensLanes(t *testing.T) {
	oldPath, _ := writeSnapshots(t)
	s, err := LoadBench(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"sim.events_per_sec":                                    1000000,
		"dist.prefetch_hit_rate":                                1.0,
		"benchmarks.BenchmarkPacketSimSecond.ns_per_op":         1000,
		"benchmarks.BenchmarkPacketSimSecond.metrics.allocs/op": 100,
		"sampling.scenarios.curves.sobol_savings_pct":           50.0,
	}
	for lane, v := range want {
		if got, ok := s.Lanes[lane]; !ok || got != v {
			t.Errorf("lane %s = %v (present %v), want %v", lane, got, ok, v)
		}
	}
	if s.Header["commit"] == "" || s.Header["dirty"] != "false" {
		t.Fatalf("header lost commit/dirty: %v", s.Header)
	}
	if got := s.Label(); got != "aaaaaaaaaaaa" {
		t.Fatalf("Label = %q, want truncated commit", got)
	}
}

func TestLoadBenchCommittedSnapshot(t *testing.T) {
	// The committed trajectory snapshot must parse — `cs bench diff`
	// names it directly and CI diffs against it.
	s, err := LoadBench("../../BENCH_20260808.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, lane := range []string{
		"sim.allocs_per_event",
		"dist.prefetch_hit_rate",
		"sampling.scenarios.curves.sobol_savings_pct",
	} {
		if _, ok := s.Lanes[lane]; !ok {
			t.Errorf("committed snapshot missing expected lane %s", lane)
		}
	}
}

func TestDiffDirectionAwareness(t *testing.T) {
	oldPath, newPath := writeSnapshots(t)
	oldS, err := LoadBench(oldPath)
	if err != nil {
		t.Fatal(err)
	}
	newS, err := LoadBench(newPath)
	if err != nil {
		t.Fatal(err)
	}
	d := DiffSnapshots(oldS, newS, DiffOptions{All: true})
	rows := map[string]DiffRow{}
	for _, r := range d.Rows {
		rows[r.Lane] = r
	}
	// events_per_sec doubled: higher-better, so an improvement (-0.5).
	if r := rows["sim.events_per_sec"]; r.Regression != -1.0 {
		t.Errorf("events_per_sec regression = %v, want -1.0 (improvement)", r.Regression)
	}
	// hit_rate halved: higher-better, so a +0.5 regression.
	if r := rows["dist.prefetch_hit_rate"]; r.Regression != 0.5 {
		t.Errorf("prefetch_hit_rate regression = %v, want 0.5", r.Regression)
	}
	// allocs_per_event tripled: lower-better, +2.0 regression.
	if r := rows["sim.allocs_per_event"]; r.Regression != 2.0 {
		t.Errorf("allocs_per_event regression = %v, want 2.0", r.Regression)
	}
	// ns_per_op 1000→1300: +0.3 regression.
	if r := rows["benchmarks.BenchmarkPacketSimSecond.ns_per_op"]; r.Regression < 0.29 || r.Regression > 0.31 {
		t.Errorf("ns_per_op regression = %v, want ~0.3", r.Regression)
	}
	// Worst regression sorts first among two-sided rows.
	if d.Rows[0].Lane != "sim.allocs_per_event" {
		t.Errorf("worst lane first = %s, want sim.allocs_per_event", d.Rows[0].Lane)
	}
}

func TestDiffReportThresholdHidesNoise(t *testing.T) {
	oldPath, newPath := writeSnapshots(t)
	oldS, _ := LoadBench(oldPath)
	newS, _ := LoadBench(newPath)
	d := DiffSnapshots(oldS, newS, DiffOptions{ReportThreshold: 0.10})
	for _, r := range d.Rows {
		// local_us_per_shard moved 1%: below threshold, must be hidden.
		if r.Lane == "dist.local_us_per_shard" {
			t.Fatalf("sub-threshold lane reported: %+v", r)
		}
	}
}

func TestDiffGates(t *testing.T) {
	oldPath, newPath := writeSnapshots(t)
	oldS, _ := LoadBench(oldPath)
	newS, _ := LoadBench(newPath)
	d := DiffSnapshots(oldS, newS, DiffOptions{Gates: map[string]float64{
		"sim.allocs_per_event":                        0.5,  // regressed 200% → fails
		"dist.prefetch_hit_rate":                      0.75, // regressed 50% → passes
		"sampling.scenarios.curves.sobol_savings_pct": 0.25, // unchanged → passes
		"no.such.lane":                                0.1,  // absent from both → fails loudly
	}})
	if len(d.GateFailures) != 2 {
		t.Fatalf("gate failures = %v, want exactly 2", d.GateFailures)
	}
	joined := strings.Join(d.GateFailures, "\n")
	if !strings.Contains(joined, "sim.allocs_per_event") {
		t.Errorf("allocs gate failure missing: %v", d.GateFailures)
	}
	if !strings.Contains(joined, "no.such.lane") || !strings.Contains(joined, "absent") {
		t.Errorf("missing-lane gate failure missing: %v", d.GateFailures)
	}
}

func TestWriteMarkdown(t *testing.T) {
	oldPath, newPath := writeSnapshots(t)
	oldS, _ := LoadBench(oldPath)
	newS, _ := LoadBench(newPath)
	d := DiffSnapshots(oldS, newS, DiffOptions{Gates: map[string]float64{"sim.allocs_per_event": 0.5}})
	var sb strings.Builder
	if err := d.WriteMarkdown(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"aaaaaaaaaaaa",       // old revision named
		"bbbbbbbbbbbb+dirty", // new revision named, dirty flagged
		"sim.allocs_per_event",
		"Gate failures",
		"lower is better",
		"higher is better",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("markdown report missing %q:\n%s", want, out)
		}
	}
}
