package engine

import (
	"context"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"carriersense/internal/montecarlo"
	"carriersense/internal/obs"
	"carriersense/internal/plot"
	"carriersense/internal/prov"
	"carriersense/internal/sampling"
)

// Options configures one engine invocation.
type Options struct {
	// Seed, when non-empty, is applied as `-set seed=<Seed>` to param
	// structs that have a Seed field (scenarios without randomness
	// ignore it).
	Seed string
	// Scale is the sampling effort hint: "smoke", "bench", or "full".
	// Empty means "bench". Scenarios with a Scale param field receive
	// it there too.
	Scale string
	// Executor, when non-nil, routes every kernel-based Monte Carlo
	// estimation of the run through it — the seam the
	// distributed shard executor (internal/dist, `cs run -workers`)
	// plugs into. nil keeps the in-process pool. Results are
	// bit-identical for any executor that honors the shard-order merge
	// contract.
	Executor montecarlo.Executor
	// Sampler names the sampling strategy stamped into every kernel
	// estimation ("" = plain). Strategies are registered in
	// internal/sampling; the name becomes part of each request's
	// identity (dist wire protocol, cache key), so sampled runs keep
	// the full determinism contract. The virtual strategy "auto"
	// installs the variance-aware auto-scheduler, which pilots the
	// registered strategies per kernel and rewrites every request to
	// the per-kernel winner before it reaches the wire or the cache.
	Sampler string
	// RelErr, when > 0, switches every kernel estimation into
	// convergence mode: a sampling.Driver grows each point's budget
	// geometrically (whole shards, no sample re-evaluated) until the
	// primary component's relative standard error is at most RelErr.
	// Each variant's artifacts gain a sampling.csv ledger and
	// sampling_* metrics.
	RelErr float64
	// MaxSamples caps each driven point's budget; 0 caps at the
	// scenario's own per-point sample count. Requires RelErr > 0.
	MaxSamples int
	// Sets are "k=v" parameter overrides applied in order.
	Sets []string
	// Grid are "k=v1,v2,..." axes expanded into a cross product of
	// variant runs.
	Grid []string
	// OutDir, when non-empty, is the parent under which a timestamped
	// run directory (artifacts: output.txt, result.json, *.csv) is
	// created. Empty disables artifact files.
	OutDir string
	// Exec describes the execution shape (fleet, wire, cache, faults,
	// experiment coordinates) for the run's provenance manifest. The
	// engine cannot see through the Executor interface, so the caller
	// that assembled the chain reports it here.
	Exec prov.ExecInfo
	// Stdout receives the live text report; nil discards it.
	Stdout io.Writer
	// Now stamps the run directory; zero means time.Now.
	Now time.Time
}

// Result is the outcome of one scenario variant.
type Result struct {
	Scenario string `json:"scenario"`
	Variant  string `json:"variant,omitempty"` // grid point label
	Scale    string `json:"scale"`
	// Sampler is the effective sampling strategy the variant ran under.
	Sampler string `json:"sampler"`
	// RelErr is the convergence target (0 = fixed budgets).
	RelErr float64 `json:"rel_err,omitempty"`
	// SamplerChoices are the auto-scheduler's resolved per-kernel
	// strategies ("auto" runs only). The choice is a pure function of
	// (kernel, params, seed), so the map is deterministic and safe in
	// the byte-compared result.json.
	SamplerChoices map[string]string  `json:"sampler_choices,omitempty"`
	Params         any                `json:"params"`
	Metrics        map[string]float64 `json:"metrics,omitempty"`
	Text           string             `json:"-"`
	Elapsed        time.Duration      `json:"-"`
	// Perf carries the variant's observability data: wall time plus the
	// delta of every obs registry series across the variant (stage
	// timings, shard counts, wire bytes, cache traffic). It is
	// deliberately excluded from result.json — wall-clock values change
	// run to run, and result.json is byte-compared by the determinism
	// contract — and lands in the run's metrics.json/timings.csv
	// instead.
	Perf map[string]float64 `json:"-"`

	csvs map[string][]byte
}

// RunContext is the scenario's view of one variant run.
type RunContext struct {
	// Context carries cancellation from the CLI and the variant's plan
	// (montecarlo.WithPlan), which holds the run's executor and
	// sampler. Scenarios pass it to montecarlo.Fork and to every
	// estimation, so their points reach the run's executor and take
	// positions in plan order.
	Context context.Context
	// Params is the populated parameter struct (same concrete type as
	// Scenario.NewParams()).
	Params any
	// Scale is the resolved sampling effort: "smoke", "bench", "full".
	Scale string

	out    io.Writer
	result *Result
}

// Out returns the writer for the scenario's text report. It is teed to
// the caller's stdout and the output.txt artifact.
func (rc *RunContext) Out() io.Writer { return rc.out }

// Printf writes formatted text to the report.
func (rc *RunContext) Printf(format string, args ...any) {
	fmt.Fprintf(rc.out, format, args...)
}

// Metric records a named headline number for result.json (and the
// determinism tests).
func (rc *RunContext) Metric(name string, v float64) {
	if rc.result.Metrics == nil {
		rc.result.Metrics = map[string]float64{}
	}
	rc.result.Metrics[name] = v
}

// Chart renders a chart into the text report and registers its series
// as a CSV artifact under name.csv.
func (rc *RunContext) Chart(name string, c plot.Chart, width, height int) {
	c.Render(rc.out, width, height)
	var b strings.Builder
	if err := c.WriteCSV(&b); err != nil {
		fmt.Fprintf(rc.out, "[chart %s: csv artifact skipped: %v]\n", name, err)
		return
	}
	rc.rawCSV(name, []byte(b.String()))
}

// CSV registers a tabular artifact written as name.csv in the run
// directory. headers may be nil when rows already include them.
func (rc *RunContext) CSV(name string, headers []string, rows [][]string) {
	var b strings.Builder
	w := csv.NewWriter(&b)
	if len(headers) > 0 {
		_ = w.Write(headers)
	}
	_ = w.WriteAll(rows) // WriteAll flushes; strings.Builder cannot fail
	rc.rawCSV(name, []byte(b.String()))
}

// Table renders a plot.Table into the text report and registers it as
// a CSV artifact.
func (rc *RunContext) Table(name string, t plot.Table) {
	t.Render(rc.out)
	rc.CSV(name, t.Headers, t.Rows)
}

func (rc *RunContext) rawCSV(name string, data []byte) {
	if rc.result.csvs == nil {
		rc.result.csvs = map[string][]byte{}
	}
	rc.result.csvs[name] = data
}

// Run resolves a scenario by name, expands its grid, executes every
// variant, writes artifacts, and returns the per-variant results.
func Run(ctx context.Context, name string, opts Options) ([]*Result, error) {
	sc, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("unknown scenario %q (try `cs list`)", name)
	}
	scale := opts.Scale
	if scale == "" {
		scale = "bench"
	}
	switch scale {
	case "smoke", "bench", "full":
	default:
		return nil, fmt.Errorf("unknown scale %q (want smoke, bench, or full)", scale)
	}

	var axes []GridAxis
	for _, spec := range opts.Grid {
		ax, err := ParseGridAxis(spec)
		if err != nil {
			return nil, err
		}
		// Keys are case-insensitive field names (SetParam): a key on
		// two axes would label variants by both values but run each
		// at the later one.
		for _, prev := range axes {
			if strings.EqualFold(prev.Key, ax.Key) {
				return nil, fmt.Errorf("grid key %q is on two -grid axes", ax.Key)
			}
		}
		axes = append(axes, ax)
	}
	points := ExpandGrid(axes)

	runDir := ""
	now := opts.Now
	if now.IsZero() {
		now = time.Now()
	}

	runStart := time.Now()
	preSamples := montecarlo.EvaluatedSamples()
	preSnap := obs.Default().SnapshotFlows()
	var results []*Result
	for _, point := range points {
		res, err := runVariant(ctx, sc, point, scale, opts)
		if err != nil {
			return results, fmt.Errorf("scenario %s%s: %w", sc.Name, variantSuffix(point), err)
		}
		if opts.OutDir != "" {
			// The run directory appears with the first variant's
			// artifacts, so a run rejected before any variant ran
			// (a bad -set, -sampler or -relerr) leaves nothing behind.
			if runDir == "" {
				if runDir, err = makeRunDir(opts.OutDir, now.UTC().Format("20060102-150405")+"-"+sc.Name); err != nil {
					return results, err
				}
			}
			if err := writeArtifacts(runDir, res); err != nil {
				return results, err
			}
		}
		results = append(results, res)
	}
	if runDir != "" {
		// The run's observability artifacts live beside the
		// deterministic ones but are never part of the byte-identity
		// contract: metrics.json carries the run summary (elapsed,
		// samples, samples/sec) plus the registry delta, timings.csv the
		// per-variant per-stage breakdown.
		sum := runSummary{
			Elapsed:          time.Since(runStart),
			EvaluatedSamples: montecarlo.EvaluatedSamples() - preSamples,
			RegistryDelta:    obs.SnapshotDelta(preSnap, obs.Default().SnapshotFlows()),
		}
		if err := writeRunMetrics(runDir, sc.Name, results, sum); err != nil {
			return results, err
		}
		// Stamp provenance last: the manifest digests every artifact
		// above, so anything written to the run dir after this point is
		// drift that `cs verify` reports.
		if err := writeManifest(runDir, sc.Name, scale, opts, results, sum, now); err != nil {
			return results, err
		}
	}
	if runDir != "" && opts.Stdout != nil {
		fmt.Fprintf(opts.Stdout, "\nartifacts: %s\n", runDir)
	}
	return results, nil
}

// timedExecutor is the engine's estimation-level instrumentation
// point, the executor of every variant's plan: every kernel
// estimation a variant issues is timed into
// cs_engine_estimate_seconds and, under -trace, emitted as a span on
// its task's lane.
type timedExecutor struct {
	inner montecarlo.Executor
}

// EstimateVec implements montecarlo.Executor.
func (b timedExecutor) EstimateVec(ctx context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	tr := obs.CurrentTracer()
	var ts time.Duration
	if tr != nil {
		ts = tr.Now()
	}
	t0 := time.Now()
	accs, err := b.inner.EstimateVec(ctx, req)
	mEstimateSeconds.Observe(time.Since(t0).Seconds())
	if tr != nil {
		tr.Span("estimate", "engine", montecarlo.Lane(ctx), ts,
			map[string]any{"kernel": req.Kernel, "samples": req.Samples, "dim": req.Dim})
	}
	return accs, err
}

// makeRunDir creates a fresh run directory under parent. The stamp is
// second-resolution, so two runs of the same scenario within one
// second would land on the same path and silently overwrite each
// other's artifacts; os.Mkdir detects the collision atomically and a
// serial suffix (-2, -3, ...) keeps every run's artifacts intact.
func makeRunDir(parent, stamp string) (string, error) {
	if err := os.MkdirAll(parent, 0o755); err != nil {
		return "", fmt.Errorf("create artifact dir: %w", err)
	}
	for serial := 1; serial <= 10000; serial++ {
		dir := filepath.Join(parent, stamp)
		if serial > 1 {
			dir = filepath.Join(parent, fmt.Sprintf("%s-%d", stamp, serial))
		}
		err := os.Mkdir(dir, 0o755)
		if err == nil {
			return dir, nil
		}
		if !os.IsExist(err) {
			return "", fmt.Errorf("create run dir: %w", err)
		}
	}
	return "", fmt.Errorf("create run dir: %s: too many runs with this stamp", stamp)
}

func variantSuffix(point GridPoint) string {
	if len(point) == 0 {
		return ""
	}
	return " [" + point.Label() + "]"
}

func runVariant(ctx context.Context, sc Scenario, point GridPoint, scale string, opts Options) (res *Result, err error) {
	// Kernel-routed estimations report executor failures (an
	// unreachable worker fleet, an exhausted shard retry budget) as a
	// typed panic so the model's estimators keep value-returning
	// signatures; surface them as ordinary errors here.
	defer func() {
		if r := recover(); r != nil {
			if execErr, ok := r.(*montecarlo.ExecError); ok {
				res, err = nil, execErr
				return
			}
			panic(r)
		}
	}()
	// The variant's context carries a fresh plan (montecarlo.WithPlan)
	// over its executor chain: the configured executor (worker fleet,
	// cache, or montecarlo.Local) under the sampling chain — fresh per
	// variant so each variant's sampling ledger is its own, ordered by
	// the plan's positions — wrapped in the instrumented executor, so
	// estimation timings apply to every run alike.
	chain, err := sampling.NewChain(opts.Executor, opts.Sampler, opts.RelErr, opts.MaxSamples)
	if err != nil {
		return nil, err
	}
	ctx = montecarlo.WithPlan(ctx, timedExecutor{inner: chain.Executor()}, opts.Sampler)
	params := sc.NewParams()
	if opts.Seed != "" && HasParam(params, "seed") {
		if err := SetParam(params, "seed", opts.Seed); err != nil {
			return nil, err
		}
	}
	if HasParam(params, "scale") {
		if err := SetParam(params, "scale", scale); err != nil {
			return nil, err
		}
	}
	for _, kv := range opts.Sets {
		key, value, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("bad -set %q (want key=value)", kv)
		}
		if err := SetParam(params, strings.TrimSpace(key), strings.TrimSpace(value)); err != nil {
			return nil, err
		}
	}
	for _, kv := range point {
		if err := SetParam(params, kv.Key, kv.Value); err != nil {
			return nil, err
		}
	}

	sampler := opts.Sampler
	if sampler == "" {
		sampler = montecarlo.SamplerPlain
	}
	res = &Result{
		Scenario: sc.Name,
		Variant:  point.Label(),
		Scale:    scale,
		Sampler:  sampler,
		RelErr:   opts.RelErr,
		Params:   params,
	}
	var text strings.Builder
	out := io.Writer(&text)
	if opts.Stdout != nil {
		out = io.MultiWriter(&text, opts.Stdout)
	}
	rc := &RunContext{
		Context: ctx,
		Params:  params,
		Scale:   scale,
		out:     out,
		result:  res,
	}
	if res.Variant != "" {
		rc.Printf("--- variant: %s ---\n", res.Variant)
	}
	tr := obs.CurrentTracer()
	var ts time.Duration
	if tr != nil {
		tr.NameThread(obs.TidEngine, "engine")
		ts = tr.Now()
	}
	pre := obs.Default().SnapshotFlows()
	start := time.Now()
	if err := sc.Run(rc); err != nil {
		return nil, err
	}
	if chain.Driver() != nil {
		recordSampling(rc, chain)
	}
	if chain.Auto() != nil {
		recordChoices(rc, chain.Auto())
	}
	res.Elapsed = time.Since(start)
	res.Perf = obs.SnapshotDelta(pre, obs.Default().SnapshotFlows())
	res.Perf["wall_seconds"] = res.Elapsed.Seconds()
	if tr != nil {
		label := sc.Name
		if res.Variant != "" {
			label += " [" + res.Variant + "]"
		}
		tr.Span("variant "+label, "engine", obs.TidEngine, ts, nil)
	}
	res.Text = text.String()
	return res, nil
}

// recordSampling appends the convergence driver's per-point ledger to
// the variant's report: a sampling.csv artifact (one row per driven
// estimation point — sampler, samples spent, achieved relative error,
// converged or capped), headline sampling_* metrics in result.json,
// and one summary line in the text report. Everything here is a pure
// function of (params, seed, sampler, target), so the output stays
// byte-stable under the determinism contract.
func recordSampling(rc *RunContext, chain *sampling.Chain) {
	driver := chain.Driver()
	reports := driver.Reports()
	if len(reports) == 0 {
		return
	}
	// Pilot honesty: fold the pilots' samples into the spend so savings
	// claims pay for their own measurement overhead.
	pilot := chain.PilotSpent()
	rows := make([][]string, 0, len(reports))
	for _, p := range reports {
		rows = append(rows, []string{
			p.Kernel,
			p.Sampler,
			fmt.Sprintf("%d", p.Seed),
			fmt.Sprintf("%d", p.Budget),
			fmt.Sprintf("%d", p.Spent),
			fmt.Sprintf("%d", p.Rounds),
			fmt.Sprintf("%.6g", p.RelErr),
			fmt.Sprintf("%g", p.Target),
			fmt.Sprintf("%t", p.Converged),
		})
	}
	rc.CSV("sampling", []string{
		"kernel", "sampler", "seed", "budget", "spent", "rounds", "rel_err", "target", "converged",
	}, rows)
	s := driver.Summarize()
	rc.Metric("sampling_points", float64(s.Points))
	rc.Metric("sampling_spent", float64(s.Spent+pilot))
	rc.Metric("sampling_converged", float64(s.Converged))
	rc.Metric("sampling_capped", float64(s.Capped))
	if pilot > 0 {
		rc.Metric("sampling_pilot", float64(pilot))
	}
	rc.Printf("\n[adaptive sampling] %d points, %d samples spent (%d in pilots), %d converged, %d capped (target relerr %g)\n",
		s.Points, s.Spent+pilot, pilot, s.Converged, s.Capped, reports[0].Target)
}

// recordChoices appends the auto-scheduler's resolved per-kernel
// strategies to the variant: a text line, a sampler_choices.csv
// artifact, and the Result field the manifest mirrors. Choices are a
// pure function of (kernel, params, seed), so all of it is
// deterministic.
func recordChoices(rc *RunContext, auto *sampling.AutoScheduler) {
	lines := auto.ChoiceLines()
	if len(lines) == 0 {
		return
	}
	rc.result.SamplerChoices = auto.Choices()
	scores := auto.Scores()
	rows := make([][]string, 0, len(lines))
	for _, line := range lines {
		kernel, choice, _ := strings.Cut(line, "=")
		for _, ps := range scores[kernel] {
			rows = append(rows, []string{
				kernel, ps.Sampler, fmt.Sprintf("%d", ps.Samples), fmt.Sprintf("%.6g", ps.Score),
				fmt.Sprintf("%t", ps.Sampler == choice),
			})
		}
	}
	rc.CSV("sampler_choices", []string{"kernel", "sampler", "samples", "score", "chosen"}, rows)
	rc.Printf("[auto sampler] %s\n", strings.Join(lines, " "))
}

func writeArtifacts(runDir string, res *Result) error {
	base := "output"
	if res.Variant != "" {
		base = sanitize(res.Variant)
	}
	if err := os.WriteFile(filepath.Join(runDir, base+".txt"), []byte(res.Text), 0o644); err != nil {
		return err
	}
	js, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return fmt.Errorf("marshal result: %w", err)
	}
	jsName := "result.json"
	if res.Variant != "" {
		jsName = base + ".result.json"
	}
	if err := os.WriteFile(filepath.Join(runDir, jsName), append(js, '\n'), 0o644); err != nil {
		return err
	}
	names := make([]string, 0, len(res.csvs))
	for name := range res.csvs {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		csvName := sanitize(name) + ".csv"
		if res.Variant != "" {
			csvName = base + "." + csvName
		}
		if err := os.WriteFile(filepath.Join(runDir, csvName), res.csvs[name], 0o644); err != nil {
			return err
		}
	}
	return nil
}

func sanitize(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '.':
			return r
		default:
			return '_'
		}
	}, s)
}
