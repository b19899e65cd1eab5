// Command bench is carriersense's benchmark harness. It drives the
// system only through its public entry points — engine.Run, the
// montecarlo executor seam, the cache, and the dist worker fleet — in a
// closed loop, and reports end-to-end metrics (untraced) or per-layer
// metrics (traced). See README.md for the workloads and the metric
// catalogue.
//
// Run from the repository root:
//
//	bash bench/run.sh --workload tables-fixed --seed 1 --seconds 25 --trace 0
//	bash bench/run.sh -workload all -seed 1 -out result.json
//	bash bench/run.sh -workload testbed -seed 1 -trace 1 -trace-out trace.json
//	bash bench/run.sh -compare runsA runsB
//
// The first form is the benchmark's interface: BENCHMARK.json's command
// followed by the workload, the seed, the loop length and the metric
// set. -seconds defaults to BENCHMARK.json's run_seconds.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
)

func main() {
	probeMain()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	code := run(ctx, os.Args[1:], os.Stdout)
	stop()
	os.Exit(code)
}

// probeMain turns this process into a setup launch, and exits, when
// probeEnv says it is one.
func probeMain() {
	spec, ok := os.LookupEnv(probeEnv)
	if !ok {
		return
	}
	if err := runProbe(spec); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	os.Exit(0)
}

// launchesPerRun is how many fresh processes setup_s takes the median
// of: a single launch swings by tens of percent on a shared box.
const launchesPerRun = 11

func run(ctx context.Context, args []string, stdout io.Writer) int {
	bench, err := loadBenchmark("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := fs.Float64("seconds", float64(bench.RunSeconds), "how long each workload's timed loop runs; BENCHMARK.json's run_seconds by default")
	trace := fs.Int("trace", 0, "0 reports the end-to-end metrics; 1 records spans, replays, and reports the per-layer ones")
	traceOut := fs.String("trace-out", filepath.Join(".bench_build", "trace.json"), "Chrome trace JSON written when -trace 1")
	out := fs.String("out", "", "also write the full result, with provenance, to this JSON file")
	compare := fs.Bool("compare", false, "compare two sets of results: -compare A B, each a result file or a directory of them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare wants two arguments: A B")
			return 2
		}
		breach, err := compareSets(bench, fs.Arg(0), fs.Arg(1), stdout)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		if breach {
			return 1
		}
		return 0
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(os.Stderr, "bench: -trace must be 0 or 1, got %d\n", *trace)
		return 2
	}
	var selected []workload
	if *name == "all" {
		selected = workloads
	} else if w, ok := lookupWorkload(*name); ok {
		selected = []workload{w}
	} else {
		fmt.Fprintf(os.Stderr, "bench: unknown -workload %q (want all, or one of %s)\n", *name, strings.Join(names, ", "))
		return 2
	}
	workdir := filepath.Join(".bench_build", "work")
	if err := os.MkdirAll(workdir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1, scale: "bench", launches: launchesPerRun, workdir: workdir}
	reports, err := runWorkloads(ctx, selected, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if cfg.trace {
		var evs []traceEvent
		for i, r := range reports {
			evs = append(evs, traceEvents(i+1, r.Workload, r.spans)...)
		}
		if err := writeTrace(*traceOut, evs); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if *out != "" {
		if err := writeResult(*out, cfg, reports); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	listed := bench.EndToEnd
	if cfg.trace {
		listed = bench.PerLayer
	}
	line, err := summary(reports, listed, len(selected) > 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for _, r := range reports {
		for _, e := range r.Errors {
			fmt.Fprintf(os.Stderr, "%s: %s\n", r.Workload, e)
		}
		for _, k := range r.order {
			m := r.Metrics[k]
			fmt.Fprintf(stdout, "%s %s %v %s\n", r.Workload, k, m.Value, m.Unit)
		}
	}
	fmt.Fprintln(stdout, line)
	return 0
}

// runWorkloads measures each workload in turn.
func runWorkloads(ctx context.Context, ws []workload, cfg config) ([]*report, error) {
	var reports []*report
	for i, w := range ws {
		if i > 0 {
			if err := resetPeakRSS(); err != nil {
				return nil, fmt.Errorf("%s: %w", w.name, err)
			}
		}
		r, err := measure(ctx, w, cfg)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		reports = append(reports, r)
	}
	return reports, nil
}

// summary is the last line of the output: one JSON object with the
// outcome and the listed metrics. Every listed metric must have been
// measured and be finite; with several workloads a metric is keyed
// "<workload>/<metric>".
func summary(reports []*report, listed []metricDef, prefixed bool) (string, error) {
	s := struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{Correct: true, Metrics: map[string]metric{}}
	var errs []error
	for _, r := range reports {
		s.Correct = s.Correct && r.correct()
		s.Attempted += r.Attempted
		s.Failed += r.Failed
		for _, d := range listed {
			m, ok := r.Metrics[d.Name]
			if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
				errs = append(errs, fmt.Errorf("%s: metric %s not measured (value %v)", r.Workload, d.Name, m.Value))
				continue
			}
			key := d.Name
			if prefixed {
				key = r.Workload + "/" + d.Name
			}
			s.Metrics[key] = m
		}
	}
	if err := errors.Join(errs...); err != nil {
		return "", err
	}
	line, err := json.Marshal(s)
	return string(line), err
}

// provenance says what was measured, where, and how.
type provenance struct {
	Commit     string         `json:"commit"`
	Dirty      bool           `json:"dirty"`
	GoVersion  string         `json:"go_version"`
	NProc      int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	CPUModel   string         `json:"cpu_model"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"seconds"`
	Trace      bool           `json:"trace"`
	Iterations map[string]int `json:"iterations"`
}

// resultFile is what -out writes and -compare reads.
type resultFile struct {
	Provenance provenance         `json:"provenance"`
	Workloads  map[string]*report `json:"workloads"`
}

func writeResult(path string, cfg config, reports []*report) error {
	commit, dirty := gitState()
	f := resultFile{
		Provenance: provenance{
			Commit: commit, Dirty: dirty,
			GoVersion: runtime.Version(), NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
			CPUModel: cpuModel(), Seed: cfg.seed, Seconds: cfg.seconds, Trace: cfg.trace,
			Iterations: map[string]int{},
		},
		Workloads: map[string]*report{},
	}
	for _, r := range reports {
		f.Provenance.Iterations[r.Workload] = r.Attempted
		f.Workloads[r.Workload] = r
	}
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal result: %w", err)
	}
	if err := os.WriteFile(path, append(data, '\n'), 0o644); err != nil {
		return fmt.Errorf("write result: %w", err)
	}
	return nil
}

// gitState returns the checkout's commit and whether its tree differs
// from it, or "unknown" outside a git work tree.
func gitState() (commit string, dirty bool) {
	head, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(head)), err != nil || len(status) > 0
}

// cpuModel is the first "model name" in /proc/cpuinfo.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
