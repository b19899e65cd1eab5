package prov

// Bench snapshot diffing: BENCH_<date>.json files are the repo's perf
// trajectory (one per CI run, one committed per PR). This file flattens
// a snapshot into named lanes and compares two snapshots lane-by-lane,
// so `cs bench diff OLD NEW` replaces eyeballing uploaded artifacts and
// CI can gate on regressions in named headline metrics.

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// BenchSnapshot is one parsed BENCH_*.json: header strings plus every
// numeric value flattened into dot-separated lanes, e.g.
// "sim.events_per_sec", "dist.local_us_per_shard",
// "sampling.scenarios.curves.sobol_savings_pct",
// "benchmarks.BenchmarkPacketSimSecond.ns_per_op".
type BenchSnapshot struct {
	Path   string
	Header map[string]string
	Lanes  map[string]float64
}

// Label names a snapshot for the report: commit (+dirty) when the
// header records one, else the snapshot date, else the file path.
func (s *BenchSnapshot) Label() string {
	if c := s.Header["commit"]; c != "" {
		if len(c) > 12 {
			c = c[:12]
		}
		if s.Header["dirty"] == "true" {
			c += "+dirty"
		}
		return c
	}
	if d := s.Header["date"]; d != "" {
		return d
	}
	return s.Path
}

// LoadBench parses a BENCH_*.json snapshot. The flattener is generic —
// numbers become lanes, nested objects extend the prefix, and arrays of
// objects use their "name"/"scenario" member as the path segment — so
// new lanes future PRs add are diffable without touching this code.
func LoadBench(path string) (*BenchSnapshot, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc map[string]any
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, fmt.Errorf("prov: parse %s: %w", path, err)
	}
	s := &BenchSnapshot{Path: path, Header: map[string]string{}, Lanes: map[string]float64{}}
	for key, val := range doc {
		switch v := val.(type) {
		case string:
			s.Header[key] = v
		case bool:
			s.Header[key] = fmt.Sprintf("%v", v)
		default:
			flattenLanes(key, val, s.Lanes)
		}
	}
	if len(s.Lanes) == 0 {
		return nil, fmt.Errorf("prov: %s has no numeric lanes — not a bench snapshot?", path)
	}
	return s, nil
}

func flattenLanes(prefix string, val any, out map[string]float64) {
	switch v := val.(type) {
	case float64:
		out[prefix] = v
	case map[string]any:
		for k, sub := range v {
			flattenLanes(prefix+"."+k, sub, out)
		}
	case []any:
		for i, elem := range v {
			obj, ok := elem.(map[string]any)
			if !ok {
				continue
			}
			seg := fmt.Sprintf("%d", i)
			var idKey string
			for _, key := range []string{"name", "scenario"} {
				if id, ok := obj[key].(string); ok {
					seg, idKey = id, key
					break
				}
			}
			for k, sub := range obj {
				if k == idKey {
					continue
				}
				flattenLanes(prefix+"."+seg+"."+k, sub, out)
			}
		}
	}
}

// higherBetter reports whether a lane improves upward. Throughput,
// hit-rate, and savings lanes do; everything else (ns/op, us/shard,
// allocations, bytes) improves downward. Paper-replication metric
// lanes (efficiencies, fractions, fitted constants) are correctness
// checks, not perf — diff still shows them, but direction only matters
// when a gate or threshold flags them, and drift in either direction
// is worth seeing.
func higherBetter(lane string) bool {
	for _, kw := range []string{"per_sec", "events/sec", "hit_rate", "savings_pct"} {
		if strings.Contains(lane, kw) {
			return true
		}
	}
	return false
}

// DiffRow is one lane's comparison. Regression is the signed fraction
// of change in the *bad* direction: +0.25 means 25% worse, -0.10 means
// 10% better, regardless of whether the lane improves up or down.
type DiffRow struct {
	Lane       string
	Old, New   float64
	Regression float64
	OnlyIn     string // "old" / "new" when the lane exists in one side
}

// DiffOptions tunes the comparison.
type DiffOptions struct {
	// ReportThreshold hides rows whose |Regression| is below it
	// (default 0.10). Zero-valued options get defaults; use All to
	// show everything.
	ReportThreshold float64
	// All reports every lane regardless of threshold.
	All bool
	// Gates maps lane name → max tolerated regression fraction. A
	// gated lane missing from the new snapshot also fails the gate.
	Gates map[string]float64
}

// BenchDiff is the comparison of two snapshots.
type BenchDiff struct {
	Old, New     *BenchSnapshot
	Rows         []DiffRow // threshold-exceeding (or all) lanes, worst first
	GateFailures []string
	Compared     int // lanes present in both snapshots
}

// DiffSnapshots compares old→new lane-by-lane.
func DiffSnapshots(oldS, newS *BenchSnapshot, opts DiffOptions) *BenchDiff {
	if opts.ReportThreshold == 0 {
		opts.ReportThreshold = 0.10
	}
	d := &BenchDiff{Old: oldS, New: newS}
	lanes := make([]string, 0, len(oldS.Lanes))
	for lane := range oldS.Lanes {
		lanes = append(lanes, lane)
	}
	sort.Strings(lanes)
	for _, lane := range lanes {
		ov := oldS.Lanes[lane]
		nv, ok := newS.Lanes[lane]
		if !ok {
			d.Rows = append(d.Rows, DiffRow{Lane: lane, Old: ov, OnlyIn: "old"})
			continue
		}
		d.Compared++
		var reg float64
		switch {
		case ov == nv:
			reg = 0
		case ov == 0:
			reg = math.Inf(1)
			if (nv > 0) == higherBetter(lane) {
				reg = math.Inf(-1)
			}
		default:
			reg = (nv - ov) / math.Abs(ov)
			if higherBetter(lane) {
				reg = -reg
			}
		}
		if opts.All || math.Abs(reg) >= opts.ReportThreshold {
			d.Rows = append(d.Rows, DiffRow{Lane: lane, Old: ov, New: nv, Regression: reg})
		}
		if limit, gated := opts.Gates[lane]; gated && reg > limit {
			d.GateFailures = append(d.GateFailures,
				fmt.Sprintf("%s regressed %+.1f%% (limit %+.1f%%): %.6g -> %.6g",
					lane, reg*100, limit*100, ov, nv))
		}
	}
	newOnly := make([]string, 0)
	for lane := range newS.Lanes {
		if _, ok := oldS.Lanes[lane]; !ok {
			newOnly = append(newOnly, lane)
		}
	}
	sort.Strings(newOnly)
	for _, lane := range newOnly {
		d.Rows = append(d.Rows, DiffRow{Lane: lane, New: newS.Lanes[lane], OnlyIn: "new"})
	}
	for lane, limit := range opts.Gates {
		_, inOld := oldS.Lanes[lane]
		_, inNew := newS.Lanes[lane]
		if inOld && !inNew {
			d.GateFailures = append(d.GateFailures,
				fmt.Sprintf("%s gated (limit %+.1f%%) but absent from new snapshot", lane, limit*100))
		} else if !inOld {
			d.GateFailures = append(d.GateFailures,
				fmt.Sprintf("%s gated (limit %+.1f%%) but absent from old snapshot", lane, limit*100))
		}
	}
	sort.SliceStable(d.Rows, func(i, j int) bool {
		// Present-in-both rows first, worst regression first; one-sided
		// rows trail in lane order.
		ri, rj := d.Rows[i], d.Rows[j]
		if (ri.OnlyIn == "") != (rj.OnlyIn == "") {
			return ri.OnlyIn == ""
		}
		if ri.OnlyIn != "" {
			return ri.Lane < rj.Lane
		}
		if ri.Regression != rj.Regression {
			return ri.Regression > rj.Regression
		}
		return ri.Lane < rj.Lane
	})
	sort.Strings(d.GateFailures)
	return d
}

// WriteMarkdown renders the diff as a markdown report naming both
// revisions.
func (d *BenchDiff) WriteMarkdown(w io.Writer) error {
	fmt.Fprintf(w, "# Bench diff: %s -> %s\n\n", d.Old.Label(), d.New.Label())
	fmt.Fprintf(w, "- old: `%s` (%s, %s)\n", d.Old.Path, d.Old.Header["date"], d.Old.Header["go"])
	fmt.Fprintf(w, "- new: `%s` (%s, %s)\n", d.New.Path, d.New.Header["date"], d.New.Header["go"])
	if oc, nc := d.Old.Header["cpu"], d.New.Header["cpu"]; oc != nc {
		fmt.Fprintf(w, "- **cpu differs** (old %q, new %q): raw-time lanes are not comparable\n", oc, nc)
	}
	fmt.Fprintf(w, "- %d lanes compared\n\n", d.Compared)
	if len(d.Rows) == 0 {
		fmt.Fprintf(w, "No lane changed beyond the report threshold.\n")
	} else {
		fmt.Fprintf(w, "| lane | old | new | change | direction |\n")
		fmt.Fprintf(w, "|------|----:|----:|-------:|-----------|\n")
		for _, r := range d.Rows {
			switch r.OnlyIn {
			case "old":
				fmt.Fprintf(w, "| %s | %.6g | — | | removed |\n", r.Lane, r.Old)
			case "new":
				fmt.Fprintf(w, "| %s | — | %.6g | | added |\n", r.Lane, r.New)
			default:
				dir := "lower is better"
				if higherBetter(r.Lane) {
					dir = "higher is better"
				}
				verdict := ""
				switch {
				case r.Regression > 0:
					verdict = " ⚠ worse"
				case r.Regression < 0:
					verdict = " ✓ better"
				}
				fmt.Fprintf(w, "| %s | %.6g | %.6g | %+.1f%%%s | %s |\n",
					r.Lane, r.Old, r.New, r.Regression*100, verdict, dir)
			}
		}
	}
	if len(d.GateFailures) > 0 {
		fmt.Fprintf(w, "\n## Gate failures\n\n")
		for _, g := range d.GateFailures {
			fmt.Fprintf(w, "- %s\n", g)
		}
	}
	return nil
}
