// Command cs is the unified CLI over the scenario engine. It replaces
// the former cscurves, csthreshold, cslandscape, cstables, csmulti,
// cstestbed, csfit, and csreport binaries with one scenario catalog.
//
// Usage:
//
//	cs list [-v]
//	cs run <scenario> [-seed S] [-scale smoke|bench|full] [-parallel N]
//	                  [-workers host:port,...] [-set k=v ...]
//	                  [-grid k=v1,v2,... ...] [-out dir] [-quiet]
//	cs all [-seed S] [-scale ...] [-parallel N] [-workers ...] [-out dir] [-quiet]
//	cs serve [-listen :8031] [-parallel N]
//	cs help <scenario>
//
// Determinism: for a fixed -seed and -scale, `cs run` output is
// bit-identical at any -parallel width — random streams are assigned
// per fixed-size Monte Carlo shard, never per worker — and at any
// -workers fleet size, because the distributed executor merges shard
// accumulator states in shard order.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"carriersense/internal/cache"
	"carriersense/internal/dist"
	"carriersense/internal/engine"
	_ "carriersense/internal/experiments" // registers the scenario catalog
	"carriersense/internal/fault"
	"carriersense/internal/montecarlo"
	"carriersense/internal/obs"
	"carriersense/internal/prov"
	"carriersense/internal/sampling"
)

func main() {
	if len(os.Args) < 2 {
		usage(os.Stderr)
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "list":
		err = cmdList(os.Args[2:])
	case "run":
		err = cmdRun(os.Args[2:])
	case "all":
		err = cmdAll(os.Args[2:])
	case "serve":
		err = cmdServe(os.Args[2:])
	case "cache":
		err = cmdCache(os.Args[2:])
	case "verify":
		err = cmdVerify(os.Args[2:])
	case "exp":
		err = cmdExp(os.Args[2:])
	case "help", "-h", "--help":
		if len(os.Args) > 2 {
			err = cmdHelp(os.Args[2])
		} else {
			usage(os.Stdout)
		}
	default:
		fmt.Fprintf(os.Stderr, "unknown command %q\n\n", os.Args[1])
		usage(os.Stderr)
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func usage(w io.Writer) {
	fmt.Fprintln(w, `cs — carrier sense reproduction scenario engine

commands:
  cs list [-v]              list registered scenarios (-v: settable params)
  cs run <scenario> [...]   run one scenario
  cs all [...]              run every scenario
  cs serve [-listen :8031]  run a distributed shard worker
  cs cache stats|clear      inspect or empty the persistent result cache
  cs verify RUNDIR...       re-hash run dirs against their provenance
                            manifests; nonzero exit on tamper or drift
  cs exp run -grid F -out D execute a declarative experiments.json grid,
                            stamping every repeat's manifest (accepts the
                            shared run flags: -workers, -cache, ...)
  cs exp analyze DIR        verify + aggregate manifested runs into
                            analysis/{summary_runs.csv,
                            summary_grouped.csv, tables.tex, plots.txt}
  cs help <scenario>        describe one scenario and its parameters

serve flags:
  -listen ADDR   listen address (default :8031)
  -parallel N    per-request worker pool width (default GOMAXPROCS)
  -fault SPEC    deterministic fault schedule for chaos testing:
                 comma-separated target:kind[@batchN][=value] rules
                 plus an optional seed=N, e.g.
                 'worker1:crash@batch3,worker2:slow=200ms,seed=7'
                 (kinds: crash, slow, corrupt, truncate, refuse, flip)
  -fault-id NAME which schedule target this worker answers to
  -trace F       write this worker's Chrome trace_event timeline (one
                 span per evaluated shard batch) to F when a SIGINT/
                 SIGTERM drain completes — the worker-side complement
                 of the coordinator's run -trace

run/all flags:
  -seed S        override the scenario's Seed parameter
  -scale LEVEL   sampling effort: smoke, bench (default), or full
  -parallel N    Monte Carlo worker pool width (default GOMAXPROCS);
                 at 1 a scenario's independent points also run one
                 at a time; results are bit-identical at any width
  -sampler NAME  Monte Carlo sampling strategy: plain (default),
                 stratified (per-shard strata), sobol (scrambled
                 quasi-Monte Carlo), cv (control variates against
                 each kernel's exact sigma=0 quadrature twin), or
                 auto (pilot every strategy per kernel, run the
                 winner); part of the estimation identity, so results
                 stay bit-identical at any -parallel width, -workers
                 fleet size, and through -cache
  -auto-table F  with -sampler auto: persist the per-kernel winners to
                 F (JSON, stamped with the cache key epoch) so repeat
                 runs skip the pilot rounds; defaults to
                 <cache-dir>/sampler-choices.json when -cache is set
  -relerr T      adaptive budgets: grow each estimation point's sample
                 count (whole shards, nothing re-evaluated) until its
                 relative standard error is <= T; artifacts record
                 sampler, samples spent, and achieved RelErr per point
  -max-samples N cap for -relerr growth (default: the scenario's own
                 per-point budget)
  -workers LIST  distribute Monte Carlo shards over cs serve workers
                 (comma-separated host:port list); results are
                 bit-identical to a local run at any fleet size
  -shard-timeout D
                 with -workers: re-dispatch a shard batch unanswered
                 for D (e.g. 30s) to another worker; 0 (default) lets
                 batches run as long as their kernels do
  -hedge Q       with -workers: hedged dispatch — once the queue is
                 empty, an idle worker duplicates any batch in flight
                 longer than 2x the fastest worker's Q-quantile batch
                 latency; first result wins (bit-identical either way);
                 0 (default) disables hedging
  -readmit-base D
                 with -workers: base delay for the background /healthz
                 probes that readmit a dead worker (exponential backoff
                 with jitter; a healed worker rejoins even mid-run);
                 0 = 500ms default, negative disables readmission
  -fault SPEC    arm the deterministic fault-injection layer in this
                 process for rules targeting coord or cache, e.g.
                 -fault 'cache:flip=1,seed=7' (testing only; worker
                 rules belong on cs serve -fault ... -fault-id NAME)
  -cache         serve repeated kernel estimations from the result
                 cache (bit-identical to evaluating); persists across
                 runs under the cache directory
  -prefetch      with -cache: dry-run the scenario first, then batch-
                 evaluate every predicted cache miss before the real
                 run, so the run itself is all hits (pairs best with
                 -workers: the fleet streams the whole miss ledger
                 back to back)
  -cache-dir DIR persistent cache location (default: the user cache
                 dir, e.g. ~/.cache/carriersense)
  -cache-max-bytes B
                 bound the persistent cache; least-recently-used
                 entries are evicted once the directory exceeds B bytes
  -cpuprofile F  write a CPU profile of the run to F (go tool pprof)
  -memprofile F  write a heap profile at the end of the run to F
  -trace F       write a Chrome trace_event JSON timeline of the run
                 to F — engine variants, kernel estimations, local
                 pool shards, and per-worker dispatch batches as spans
                 (open in https://ui.perfetto.dev or chrome://tracing);
                 purely observational: artifacts stay byte-identical
  -metrics-listen ADDR
                 serve the process metric registry as Prometheus text
                 at http://ADDR/metrics for the duration of the run
                 (workers always expose /metrics; this adds the
                 coordinator side)
  -out DIR       write artifacts (output.txt, result.json, *.csv) into a
                 timestamped run directory under DIR
  -quiet         suppress the live text report on stdout

run-only flags:
  -set k=v       override one parameter (repeatable; dotted keys reach
                 nested structs, e.g. -set layout.nodes=30)
  -grid k=v1,v2  sweep a parameter axis (repeatable; axes cross-multiply)

run/all -plan (requires -cache):
  -plan          dry-run that diffs the run's estimations — for run,
                 one scenario including its -grid cross product; for
                 all, the whole catalog — against the cache and
                 reports which will be free, without evaluating
                 anything

"cs all" runs every scenario except report (which is itself the whole
catalog in one document).`)
}

// multiFlag collects repeatable -set / -grid values.
type multiFlag []string

func (m *multiFlag) String() string { return fmt.Sprint([]string(*m)) }
func (m *multiFlag) Set(v string) error {
	*m = append(*m, v)
	return nil
}

// runConfig is the fully-resolved state of one run/all invocation.
type runConfig struct {
	opts          engine.Options
	cache         *cache.Executor // non-nil when -cache is set
	cacheDir      string          // resolved persistent cache directory (when -cache)
	prefetch      bool            // -prefetch: warm the cache from the plan first
	cpuProfile    string
	memProfile    string
	traceFile     string // -trace: Chrome trace_event JSON output path
	metricsListen string // -metrics-listen: /metrics scrape address for the run
}

// runOptions binds the shared run/all flags onto a FlagSet. After
// fs.Parse, finish() completes and returns the run configuration.
// withSets adds the per-scenario -set/-grid flags, which only make
// sense when running a single scenario.
func runOptions(fs *flag.FlagSet, withSets bool) (finish func() (runConfig, error)) {
	var cfg runConfig
	opts := &cfg.opts
	var sets, grid multiFlag
	fs.StringVar(&opts.Seed, "seed", "", "override the scenario's Seed parameter")
	fs.StringVar(&opts.Scale, "scale", "bench", "sampling effort: smoke, bench, or full")
	fs.IntVar(&opts.Parallel, "parallel", 0, "worker pool width (0 = GOMAXPROCS)")
	fs.StringVar(&opts.Sampler, "sampler", "", "sampling strategy: plain (default), stratified, sobol, cv, or auto")
	fs.StringVar(&opts.AutoTable, "auto-table", "", "with -sampler auto: persist per-kernel choices to this JSON table (default: <cache-dir>/sampler-choices.json when -cache is set)")
	fs.Float64Var(&opts.RelErr, "relerr", 0, "grow per-point budgets until this relative standard error is met")
	fs.IntVar(&opts.MaxSamples, "max-samples", 0, "per-point budget cap for -relerr (0 = the scenario's own budget)")
	workers := fs.String("workers", "", "distribute shards over cs serve workers (host:port,host:port,...)")
	shardTimeout := fs.Duration("shard-timeout", 0, "re-dispatch a shard batch unanswered for this long (0 = no deadline)")
	hedge := fs.Float64("hedge", 0, "with -workers: speculatively re-dispatch batches slower than this latency quantile (0 = off)")
	readmitBase := fs.Duration("readmit-base", 0, "with -workers: base probe delay for readmitting dead workers (0 = default; negative = off)")
	faultSpec := fs.String("fault", "", "deterministic fault schedule for this coordinator process (testing; see internal/fault)")
	useCache := fs.Bool("cache", false, "serve repeated kernel estimations from the persistent result cache")
	prefetch := fs.Bool("prefetch", false, "with -cache: evaluate every predicted cache miss before the real run")
	cacheDir := fs.String("cache-dir", "", "persistent cache directory (default: user cache dir)")
	cacheMaxBytes := fs.Int64("cache-max-bytes", 0, "evict least-recently-used persistent entries beyond this size (0 = unbounded)")
	fs.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&cfg.memProfile, "memprofile", "", "write a heap profile to this file")
	fs.StringVar(&cfg.traceFile, "trace", "", "write a Chrome trace_event JSON timeline of the run to this file")
	fs.StringVar(&cfg.metricsListen, "metrics-listen", "", "serve Prometheus /metrics on this address for the duration of the run")
	fs.StringVar(&opts.OutDir, "out", "", "artifact directory (empty = stdout only)")
	if withSets {
		fs.Var(&sets, "set", "parameter override k=v (repeatable)")
		fs.Var(&grid, "grid", "parameter sweep axis k=v1,v2,... (repeatable)")
	}
	quiet := fs.Bool("quiet", false, "suppress the live text report")
	fs.Usage = func() { usage(fs.Output()) }
	return func() (runConfig, error) {
		opts.Sets = sets
		opts.Grid = grid
		if !*quiet {
			opts.Stdout = os.Stdout
		}
		if opts.Parallel < 0 {
			return cfg, fmt.Errorf("-parallel must be >= 1 (or 0 for the GOMAXPROCS default), got %d", opts.Parallel)
		}
		if *shardTimeout < 0 {
			return cfg, fmt.Errorf("-shard-timeout must be >= 0, got %v", *shardTimeout)
		}
		if *hedge < 0 || *hedge >= 1 {
			return cfg, fmt.Errorf("-hedge must be a quantile in [0, 1), got %g", *hedge)
		}
		if *faultSpec != "" {
			// Coordinator-side faults: rules targeting "coord" (fleet
			// seams) or "cache" (disk-load bit flips). Worker-side rules
			// in the same schedule are inert here and belong on the
			// matching `cs serve -fault ... -fault-id <name>`.
			sched, err := fault.Parse(*faultSpec)
			if err != nil {
				return cfg, err
			}
			if p := sched.Plan("coord", "cache"); p != nil {
				fault.Install(p)
				fmt.Fprintf(os.Stderr, "fault injection armed: %s\n", p)
			}
		}
		readmit := *readmitBase
		if readmit < 0 {
			readmit = dist.ReadmitOff
		}
		var workerHosts []string
		if *workers != "" {
			hosts, err := dist.ParseWorkerList(*workers)
			if err != nil {
				return cfg, err
			}
			workerHosts = hosts
			remote, err := dist.NewRemote(hosts, dist.RemoteOptions{
				ShardTimeout: *shardTimeout, HedgeQuantile: *hedge, ReadmitBase: readmit,
			})
			if err != nil {
				return cfg, err
			}
			opts.Executor = remote
		} else if *shardTimeout != 0 {
			return cfg, fmt.Errorf("-shard-timeout requires -workers")
		} else if *hedge != 0 {
			return cfg, fmt.Errorf("-hedge requires -workers")
		} else if *readmitBase != 0 {
			return cfg, fmt.Errorf("-readmit-base requires -workers")
		}
		if opts.Sampler != sampling.Auto {
			if err := sampling.Validate(opts.Sampler); err != nil {
				return cfg, err
			}
			if opts.AutoTable != "" {
				return cfg, fmt.Errorf("-auto-table requires -sampler auto")
			}
		}
		if *useCache {
			dir, err := resolveCacheDir(*cacheDir)
			if err != nil {
				return cfg, err
			}
			cfg.cacheDir = dir
			cfg.cache = cache.New(opts.Executor, cache.Options{Dir: dir, MaxBytes: *cacheMaxBytes})
			opts.Executor = cfg.cache
		} else if *cacheDir != "" {
			return cfg, fmt.Errorf("-cache-dir requires -cache")
		} else if *cacheMaxBytes != 0 {
			return cfg, fmt.Errorf("-cache-max-bytes requires -cache")
		}
		if opts.Sampler == sampling.Auto && opts.AutoTable == "" && cfg.cacheDir != "" {
			// Default the choice table into the cache directory: both are
			// KeyEpoch-scoped memoization of the same evaluation
			// semantics, and the non-hex name is invisible to the cache's
			// entry scans.
			opts.AutoTable = filepath.Join(cfg.cacheDir, "sampler-choices.json")
		}
		if *prefetch {
			if cfg.cache == nil {
				return cfg, fmt.Errorf("-prefetch requires -cache")
			}
			if opts.RelErr > 0 {
				// The planner cannot predict convergence rounds (its
				// placeholder estimates have zero variance structure), so
				// a -relerr prefetch would fetch the wrong miss set.
				return cfg, fmt.Errorf("-prefetch cannot predict -relerr convergence rounds; prefetch without -relerr")
			}
			cfg.prefetch = true
		}
		// Record the execution shape for provenance manifests: the
		// engine cannot see through the Executor interface, so the flag
		// layer that assembled the chain reports it here.
		opts.Exec = prov.ExecInfo{
			Parallel: opts.Parallel,
			Cache:    *useCache,
			CacheDir: cfg.cacheDir,
			Prefetch: cfg.prefetch,
			Fault:    *faultSpec,
		}
		opts.Exec.Workers = workerHosts
		return cfg, nil
	}
}

// resolveCacheDir picks the persistent cache location: the explicit
// flag, or <user cache dir>/carriersense.
func resolveCacheDir(flagDir string) (string, error) {
	if flagDir != "" {
		return flagDir, nil
	}
	base, err := os.UserCacheDir()
	if err != nil {
		return "", fmt.Errorf("no user cache dir (%v); pass -cache-dir", err)
	}
	return filepath.Join(base, "carriersense"), nil
}

// startProfiles starts the requested pprof profiles and returns a stop
// function that finishes them.
func startProfiles(cfg runConfig) (stop func() error, err error) {
	var cpuFile *os.File
	if cfg.cpuProfile != "" {
		cpuFile, err = os.Create(cfg.cpuProfile)
		if err != nil {
			return nil, fmt.Errorf("create -cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("start CPU profile: %w", err)
		}
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if cfg.memProfile != "" {
			f, err := os.Create(cfg.memProfile)
			if err != nil {
				return fmt.Errorf("create -memprofile: %w", err)
			}
			defer f.Close()
			runtime.GC() // materialize the end-of-run live set
			if err := pprof.WriteHeapProfile(f); err != nil {
				return fmt.Errorf("write heap profile: %w", err)
			}
		}
		return nil
	}, nil
}

// startMetricsServer serves the process metric registry at /metrics on
// addr until the returned stop function is called. Scrapes during a
// run observe live counters; the endpoint exists only for the run's
// duration (long-lived scraping belongs on `cs serve` workers).
func startMetricsServer(addr string) (stop func(), err error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("listen -metrics-listen %s: %w", addr, err)
	}
	mux := http.NewServeMux()
	mux.Handle("/metrics", obs.Default().Handler())
	srv := &http.Server{Handler: mux, ReadHeaderTimeout: 10 * time.Second}
	go func() { _ = srv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "metrics on http://%s/metrics\n", ln.Addr())
	return func() { _ = srv.Close() }, nil
}

// runAndReport executes fn between profile start/stop and, unless the
// run is quiet, reports Monte Carlo throughput (and cache
// effectiveness when -cache is on). It also hosts the run-scoped
// observability surfaces: the -metrics-listen scrape endpoint and the
// -trace timeline, both of which observe the run without perturbing
// its deterministic artifacts.
func runAndReport(cfg runConfig, fn func() error) error {
	if cfg.metricsListen != "" {
		stopMetrics, err := startMetricsServer(cfg.metricsListen)
		if err != nil {
			return err
		}
		defer stopMetrics()
	}
	if cfg.traceFile != "" {
		obs.SetTracer(obs.NewTracer())
		defer obs.SetTracer(nil)
	}
	stop, err := startProfiles(cfg)
	if err != nil {
		return err
	}
	samples0 := montecarlo.EvaluatedSamples()
	start := time.Now()
	runErr := fn()
	elapsed := time.Since(start)
	if err := stop(); err != nil && runErr == nil {
		runErr = err
	}
	if cfg.traceFile != "" {
		tr := obs.CurrentTracer()
		if werr := tr.WriteFile(cfg.traceFile); werr != nil {
			if runErr == nil {
				runErr = fmt.Errorf("write -trace: %w", werr)
			}
		} else if cfg.opts.Stdout != nil {
			fmt.Fprintf(os.Stderr, "trace: %d events written to %s (load in https://ui.perfetto.dev)\n",
				tr.Len(), cfg.traceFile)
		}
	}
	// Throughput and cache diagnostics go to stderr: stdout stays
	// byte-stable for a fixed seed (the determinism contract users
	// check with `cs run ... > file && cmp`), and timing never is.
	if cfg.opts.Stdout != nil {
		if n := montecarlo.EvaluatedSamples() - samples0; n > 0 && elapsed > 0 {
			rate := float64(n) / elapsed.Seconds()
			fmt.Fprintf(os.Stderr, "evaluated %d MC samples in %s (%.3gM samples/sec)\n",
				n, elapsed.Round(time.Millisecond), rate/1e6)
		}
		if cfg.cache != nil {
			st := cfg.cache.Stats()
			fmt.Fprintf(os.Stderr, "cache: %d hits, %d disk hits, %d misses (%d entries in memory, %d disk evictions)\n",
				st.Hits, st.DiskHits, st.Misses, st.Entries, st.DiskEvictions)
		}
	}
	// Integrity damage is reported even under -quiet: a quarantined
	// entry means bits rotted on disk, which the operator should see
	// regardless of how chatty the run is.
	if cfg.cache != nil {
		if st := cfg.cache.Stats(); st.Corrupt > 0 {
			fmt.Fprintf(os.Stderr, "cache: %d corrupt disk entries quarantined and recomputed\n", st.Corrupt)
		}
	}
	return runErr
}

func cmdList(args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	verbose := fs.Bool("v", false, "also list settable parameters with defaults")
	if err := fs.Parse(args); err != nil {
		return err
	}
	for _, sc := range engine.Scenarios() {
		fmt.Printf("%-14s %s\n", sc.Name, sc.Description)
		fmt.Printf("%-14s   reproduces: %s\n", "", sc.Figures)
		if *verbose {
			for _, f := range engine.ParamFields(sc.NewParams()) {
				fmt.Printf("%-14s   -set %s=%s (%s)\n", "", f.Key, f.Default, f.Type)
			}
		}
	}
	return nil
}

func cmdHelp(name string) error {
	sc, ok := engine.Lookup(name)
	if !ok {
		return fmt.Errorf("unknown scenario %q (try `cs list`)", name)
	}
	fmt.Printf("%s — %s\nreproduces: %s\n\nparameters:\n", sc.Name, sc.Description, sc.Figures)
	fields := engine.ParamFields(sc.NewParams())
	if len(fields) == 0 {
		fmt.Println("  (none beyond -scale)")
	}
	for _, f := range fields {
		fmt.Printf("  -set %s=%s  (%s)\n", f.Key, f.Default, f.Type)
	}
	return nil
}

func cmdRun(args []string) error {
	fs := flag.NewFlagSet("run", flag.ExitOnError)
	finish := runOptions(fs, true)
	plan := fs.Bool("plan", false, "with -cache: report which estimations are already cached, without running")
	if len(args) > 0 && (args[0] == "-h" || args[0] == "--help" || args[0] == "-help") {
		usage(os.Stdout)
		return nil
	}
	if len(args) == 0 || len(args[0]) == 0 || args[0][0] == '-' {
		return fmt.Errorf("usage: cs run <scenario> [flags]; see `cs list`")
	}
	name := args[0]
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	cfg, err := finish()
	if err != nil {
		return err
	}
	if *plan {
		return planRun(cfg, name)
	}
	if cfg.prefetch {
		if name == "sampling" {
			return fmt.Errorf("the sampling scenario drives its own local executor and is never cache-routed; nothing to prefetch")
		}
		if err := prefetchScenarios(cfg, []string{name}); err != nil {
			return err
		}
	}
	return runAndReport(cfg, func() error {
		_, err := engine.Run(context.Background(), name, cfg.opts)
		return err
	})
}

// prefetchScenarios is the -cache -prefetch pass: dry-run the named
// scenarios against the cache planner, then batch-evaluate every
// predicted miss through the caching executor (and therefore through
// -workers, when set) so the real run that follows is all cache hits.
// Diagnostics go to stderr; a prefetch failure is a warning, not a
// run-stopper — the real run evaluates whatever is still missing.
func prefetchScenarios(cfg runConfig, names []string) error {
	planner := cache.NewPlanner(cfg.cacheDir)
	opts := cfg.opts
	opts.Executor = planner
	opts.Stdout = nil // the dry run must not impersonate the real report
	opts.OutDir = ""
	var misses []montecarlo.Request
	for _, name := range names {
		planner.Reset()
		if err := planScenario(name, opts); err != nil {
			// A scenario choking on placeholder estimates still yields a
			// partial miss ledger; prefetch what was predicted.
			fmt.Fprintf(os.Stderr, "prefetch: plan for %s incomplete (%v); fetching what was predicted\n", name, err)
		}
		misses = append(misses, planner.Misses()...)
	}
	if len(misses) == 0 {
		fmt.Fprintln(os.Stderr, "prefetch: cache already warm; nothing to fetch")
		return nil
	}
	start := time.Now()
	rep, err := cache.Prefetch(context.Background(), cfg.cache, misses)
	if err != nil {
		if rep.Fetched == 0 && rep.Skipped == 0 {
			// Nothing warmed at all — the run would hit the same wall
			// (dead fleet, bad kernel); fail now with the real cause.
			return fmt.Errorf("prefetch: %w", err)
		}
		fmt.Fprintf(os.Stderr, "prefetch: %d of %d fetches failed (%v); the run will evaluate them\n",
			rep.Failed, rep.Planned, err)
	}
	fmt.Fprintf(os.Stderr, "prefetch: %d predicted misses, %d fetched (%d samples), %d already present in %s\n",
		rep.Planned, rep.Fetched, rep.Samples, rep.Skipped, time.Since(start).Round(time.Millisecond))
	return nil
}

// planRun is `cs run <scenario> -cache -plan`: replay one scenario —
// including its -grid cross product and -set overrides — against the
// cache.Planner dry-run executor and report, per kernel, how much of
// the run is already paid for. The single-scenario counterpart of
// `cs all -cache -plan` (ROADMAP: cache-aware orchestration).
func planRun(cfg runConfig, name string) error {
	if cfg.cache == nil {
		return fmt.Errorf("-plan requires -cache")
	}
	if cfg.opts.RelErr > 0 {
		// A convergence-driven run issues rounds until the *values*
		// converge; a dry run with zero-mean placeholders would spin
		// every point to its cap and report nonsense.
		return fmt.Errorf("-plan cannot predict -relerr convergence rounds; plan without -relerr")
	}
	if name == "sampling" {
		return fmt.Errorf("the sampling scenario drives its own local executor and is never cache-routed; nothing to plan")
	}
	planner := cache.NewPlanner(cfg.cacheDir)
	opts := cfg.opts
	opts.Executor = planner
	opts.Stdout = nil // the plan is the output, not the scenario report
	opts.OutDir = ""
	err := planScenario(name, opts)
	entries := planner.Entries()
	fmt.Printf("cache plan for %s (%s):\n", name, cfg.cacheDir)
	// Per-kernel ledger, in first-appearance order.
	type kernelPlan struct {
		requests, cached int
		samplesToEval    int64
	}
	perKernel := map[string]*kernelPlan{}
	var order []string
	for _, e := range entries {
		kp := perKernel[e.Kernel]
		if kp == nil {
			kp = &kernelPlan{}
			perKernel[e.Kernel] = kp
			order = append(order, e.Kernel)
		}
		kp.requests++
		if e.Cached {
			kp.cached++
		} else {
			kp.samplesToEval += int64(e.Samples)
		}
	}
	for _, k := range order {
		kp := perKernel[k]
		switch {
		case kp.cached == kp.requests:
			fmt.Printf("  %-20s %4d estimations, all cached — free\n", k, kp.requests)
		default:
			fmt.Printf("  %-20s %4d estimations, %4d cached, %4d to evaluate (~%d samples)\n",
				k, kp.requests, kp.cached, kp.requests-kp.cached, kp.samplesToEval)
		}
	}
	s := planner.Summarize()
	switch {
	case s.Requests == 0:
		fmt.Println("  no kernel estimations (unaffected by the cache)")
	default:
		fmt.Printf("total: %d estimations, %d cached, %d to evaluate (~%d samples)\n",
			s.Requests, s.Cached, s.ToEvaluate, s.SamplesToEval)
	}
	if err != nil {
		// A scenario choking on placeholder estimates still yields a
		// partial ledger; report it rather than abort.
		fmt.Printf("(plan incomplete: %v)\n", err)
	}
	return nil
}

// cmdCache inspects or empties the persistent result cache used by
// `cs run -cache` / `cs all -cache`.
func cmdCache(args []string) error {
	if len(args) < 1 {
		return fmt.Errorf("usage: cs cache stats|clear [-cache-dir DIR]")
	}
	sub := args[0]
	fs := flag.NewFlagSet("cache "+sub, flag.ExitOnError)
	cacheDir := fs.String("cache-dir", "", "persistent cache directory (default: user cache dir)")
	fs.Usage = func() { usage(fs.Output()) }
	if err := fs.Parse(args[1:]); err != nil {
		return err
	}
	dir, err := resolveCacheDir(*cacheDir)
	if err != nil {
		return err
	}
	switch sub {
	case "stats":
		st, err := cache.StatDir(dir)
		if err != nil {
			return err
		}
		fmt.Printf("cache dir: %s\nentries:   %d\nsize:      %d bytes\nkey epoch: %d\n", st.Dir, st.Entries, st.Bytes, cache.KeyEpoch)
		if st.Quarantined > 0 {
			fmt.Printf("quarantined: %d corrupt entries under %s/\n", st.Quarantined, cache.QuarantineDir)
		}
		return nil
	case "clear":
		removed, err := cache.ClearDir(dir)
		if err != nil {
			return err
		}
		fmt.Printf("removed %d cache entries from %s\n", removed, dir)
		return nil
	default:
		return fmt.Errorf("unknown cache command %q (want stats or clear)", sub)
	}
}

// planAll is `cs all -cache -plan`: replay every scenario against a
// dry-run executor that diffs each estimation request against the
// persistent cache instead of evaluating it, then report which
// scenarios will be free before any real work is spent. Misses return
// zero-mean placeholders, so a scenario whose control flow depends on
// estimate *values* (threshold searches) may issue a slightly
// different request mix than the real run — the plan is exact when
// everything hits and an approximation otherwise.
func planAll(cfg runConfig) error {
	planner := cache.NewPlanner(cfg.cacheDir)
	opts := cfg.opts
	opts.Executor = planner
	opts.Stdout = nil // the plan is the output, not the scenario reports
	opts.OutDir = ""
	var total cache.PlanSummary
	fmt.Printf("cache plan (%s):\n", cfg.cacheDir)
	for _, sc := range engine.Scenarios() {
		if sc.Name == "report" {
			continue
		}
		if sc.Name == "sampling" {
			// The sampler shoot-out installs its own local driver (the
			// evaluation work *is* its benchmark), so it neither reads
			// the cache nor belongs in a dry run.
			fmt.Printf("  %-14s skipped (drives its own local executor; never cache-routed)\n", sc.Name)
			continue
		}
		planner.Reset()
		err := planScenario(sc.Name, opts)
		s := planner.Summarize()
		switch {
		case err != nil:
			// A scenario choking on placeholder estimates still yields
			// a partial ledger; report it rather than abort the plan.
			fmt.Printf("  %-14s %3d estimations, %3d cached, %3d to evaluate (plan incomplete: %v)\n",
				sc.Name, s.Requests, s.Cached, s.ToEvaluate, err)
		case s.Requests == 0:
			fmt.Printf("  %-14s no kernel estimations (unaffected by the cache)\n", sc.Name)
		case s.ToEvaluate == 0:
			fmt.Printf("  %-14s %3d estimations, all cached — free\n", sc.Name, s.Requests)
		default:
			fmt.Printf("  %-14s %3d estimations, %3d cached, %3d to evaluate (~%d samples)\n",
				sc.Name, s.Requests, s.Cached, s.ToEvaluate, s.SamplesToEval)
		}
		total.Requests += s.Requests
		total.Cached += s.Cached
		total.ToEvaluate += s.ToEvaluate
		total.SamplesCached += s.SamplesCached
		total.SamplesToEval += s.SamplesToEval
	}
	fmt.Printf("total: %d estimations, %d cached, %d to evaluate (~%d samples)\n",
		total.Requests, total.Cached, total.ToEvaluate, total.SamplesToEval)
	return nil
}

// planScenario runs one scenario against the planning executor,
// containing any panic a placeholder estimate provokes so the rest of
// the plan still prints.
func planScenario(name string, opts engine.Options) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	_, err = engine.Run(context.Background(), name, opts)
	return err
}

// cmdServe runs a distributed shard worker: an HTTP server that
// evaluates Monte Carlo shard batches against the kernel registry
// compiled into this binary. Coordinators reach it via
// `cs run <scenario> -workers host:port,...`.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	listen := fs.String("listen", ":8031", "listen address (host:port)")
	parallel := fs.Int("parallel", 0, "per-request worker pool width (0 = GOMAXPROCS)")
	faultSpec := fs.String("fault", "", "deterministic fault schedule for this worker (testing; see internal/fault)")
	faultID := fs.String("fault-id", "", "name this worker answers to in the -fault schedule")
	traceFile := fs.String("trace", "", "write this worker's Chrome trace_event timeline here on graceful drain")
	fs.Usage = func() { usage(fs.Output()) }
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *parallel < 0 {
		return fmt.Errorf("-parallel must be >= 1 (or 0 for the GOMAXPROCS default), got %d", *parallel)
	}
	if *faultID != "" && *faultSpec == "" {
		return fmt.Errorf("-fault-id requires -fault")
	}
	if *faultSpec != "" {
		if *faultID == "" {
			return fmt.Errorf("-fault requires -fault-id so this worker knows which schedule rules are its own")
		}
		sched, err := fault.Parse(*faultSpec)
		if err != nil {
			return err
		}
		if p := sched.Plan(*faultID); p != nil {
			fault.Install(p)
			fmt.Fprintf(os.Stderr, "fault injection armed for %s: %s\n", *faultID, p)
		}
	}
	if *parallel > 0 {
		if err := montecarlo.SetMaxWorkers(*parallel); err != nil {
			return err
		}
	}
	// SIGINT/SIGTERM drain rather than kill: in-flight shard batches
	// finish and deliver, streams close with a goodbye frame so
	// coordinators re-dispatch cleanly, then Serve
	// returns nil. A second signal falls through to the default
	// handler and kills the process the old way.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	// Worker-side tracing: the coordinator's -trace timeline only shows
	// dispatch latency; a worker arms its own tracer here and exports
	// the spans of every batch it evaluated when the drain completes,
	// so fleet timelines exist on both ends of the wire.
	if *traceFile != "" {
		obs.SetTracer(obs.NewTracer())
		defer obs.SetTracer(nil)
	}
	ready := make(chan net.Addr, 1)
	errc := make(chan error, 1)
	go func() { errc <- dist.Serve(ctx, *listen, ready) }()
	select {
	case addr := <-ready:
		fmt.Fprintf(os.Stderr, "cs worker listening on %s (%d kernels; endpoints %s %s %s %s)\n",
			addr, len(montecarlo.KernelNames()), dist.PathStream, dist.PathHealthz, dist.PathStats, dist.PathMetrics)
	case err := <-errc:
		return err
	}
	err := <-errc
	if err == nil && ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "cs worker drained in-flight shard batches and stopped")
	}
	if err == nil && *traceFile != "" {
		tr := obs.CurrentTracer()
		if werr := tr.WriteFile(*traceFile); werr != nil {
			return fmt.Errorf("write -trace: %w", werr)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events written to %s (load in https://ui.perfetto.dev)\n",
			tr.Len(), *traceFile)
	}
	return err
}

func cmdAll(args []string) error {
	fs := flag.NewFlagSet("all", flag.ExitOnError)
	finish := runOptions(fs, false)
	plan := fs.Bool("plan", false, "with -cache: report which estimations are already cached, without running")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg, err := finish()
	if err != nil {
		return err
	}
	if *plan {
		if cfg.cache == nil {
			return fmt.Errorf("-plan requires -cache")
		}
		if cfg.opts.RelErr > 0 {
			// A convergence-driven run issues rounds until the *values*
			// converge; a dry run with zero-mean placeholders would spin
			// every point to its cap and report nonsense. Plan the
			// fixed-budget shape instead.
			return fmt.Errorf("-plan cannot predict -relerr convergence rounds; plan without -relerr")
		}
		return planAll(cfg)
	}
	if cfg.prefetch {
		var names []string
		for _, sc := range engine.Scenarios() {
			// report re-runs the catalog; sampling drives its own local
			// executor and never routes through the cache.
			if sc.Name == "report" || sc.Name == "sampling" {
				continue
			}
			names = append(names, sc.Name)
		}
		if err := prefetchScenarios(cfg, names); err != nil {
			return err
		}
	}
	return runAndReport(cfg, func() error {
		for _, sc := range engine.Scenarios() {
			// The report scenario re-runs the whole catalog; running it
			// inside `cs all` would execute everything twice.
			if sc.Name == "report" {
				continue
			}
			if cfg.opts.Stdout != nil {
				fmt.Fprintf(cfg.opts.Stdout, "=== %s ===\n", sc.Name)
			}
			if _, err := engine.Run(context.Background(), sc.Name, cfg.opts); err != nil {
				return err
			}
			if cfg.opts.Stdout != nil {
				fmt.Fprintln(cfg.opts.Stdout)
			}
		}
		return nil
	})
}
