package main

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"time"

	"carriersense/internal/cache"
	"carriersense/internal/dist"
	"carriersense/internal/engine"
	_ "carriersense/internal/experiments" // registers the scenarios
	"carriersense/internal/montecarlo"
	"carriersense/internal/testbed"
)

// config is one workload run's settings.
type config struct {
	seed     uint64
	seconds  float64 // measure for this long and minIterations at least...
	iters    int     // ...or, when > 0, exactly this many iterations
	trace    bool
	scale    string // engine scale of the measured iterations
	launches int    // fresh-process launches behind setup_s
	workdir  string // scratch space for cache directories
}

// workload is one closed loop: a single client that issues the next
// iteration only when the previous one has returned.
type workload struct {
	name string
	// fleet marks the workload that runs through the in-process worker
	// fleet; the others meet the fleet only in the traced replay.
	fleet bool
	// iterate runs iteration i (0 is the untimed warm-up).
	iterate func(h *harness, ctx context.Context, i int) error
}

// seedCycle is how many seeds the single-scenario workloads rotate
// through: enough that no one seed's inputs decide the medians, few
// enough that every seed recurs and its digest is checked again.
const seedCycle = 8

// fleetWorkers is the size of the in-process fleet: one per CPU on the
// 2-vCPU machines the benchmark is sized for.
const fleetWorkers = 2

var workloads = []workload{
	{name: "tables-fixed", iterate: func(h *harness, ctx context.Context, i int) error {
		return h.scenario(ctx, i, "tables", engine.Options{}, checkTables)
	}},
	{name: "tables-relerr", iterate: func(h *harness, ctx context.Context, i int) error {
		opts := engine.Options{Sampler: "auto", RelErr: 0.005, MaxSamples: 4194304}
		return h.scenario(ctx, i, "tables", opts, checkTables)
	}},
	{name: "testbed", iterate: func(h *harness, ctx context.Context, i int) error {
		return h.scenario(ctx, i, "testbed", engine.Options{}, checkTestbed)
	}},
	{name: "fleet-cache", fleet: true, iterate: (*harness).cacheSession},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// runStats is what one engine.Run asked of the executor chain.
type runStats struct {
	requests, shards, combos int
	sampling                 map[string]float64 // sampling_* result metrics
}

// harness drives one workload and collects what it measures.
type harness struct {
	w     workload
	cfg   config
	rec   *recorder
	fleet *fleet // fleet-cache only

	mu       sync.Mutex
	cur      runStats
	samples  int64                // Σ SampleSpan of every request
	requests []montecarlo.Request // the current iteration's requests
	replayed []montecarlo.Request // the last traced iteration's
	digests  map[string][32]byte  // first digest per seed
	runs     []runStats           // per measured engine.Run
	caches   cache.Stats          // summed over the loop's cache executors
}

// front is the executor handed to engine.Run. It counts what the engine
// asks of the chain below it and keeps the requests for the replay.
type front struct {
	h    *harness
	next montecarlo.Executor
}

func (f front) EstimateVec(ctx context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	h := f.h
	h.mu.Lock()
	h.cur.requests++
	h.cur.shards += montecarlo.ShardCount(req.Samples) - req.FirstShard
	if req.Kernel == testbed.KernelCombo {
		h.cur.combos++
	}
	h.samples += int64(req.SampleSpan())
	h.requests = append(h.requests, req)
	h.mu.Unlock()
	return f.next.EstimateVec(ctx, req)
}

// localExec is the in-process pool.
type localExec struct{}

func (localExec) EstimateVec(ctx context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	return montecarlo.RunRequest(ctx, req)
}

func (h *harness) local() montecarlo.Executor { return timed{"montecarlo", localExec{}, h.rec} }

// run is one engine.Run under an engine span, through front and next.
func (h *harness) run(ctx context.Context, scenario string, opts engine.Options, next montecarlo.Executor) ([]*engine.Result, error) {
	opts.Executor = front{h, next}
	if opts.Scale == "" {
		opts.Scale = h.cfg.scale
	}
	h.mu.Lock()
	h.cur = runStats{}
	h.mu.Unlock()
	ctx, end := h.rec.begin(ctx, "engine", montecarlo.Request{})
	res, err := engine.Run(ctx, scenario, opts)
	end()
	h.mu.Lock()
	st := h.cur
	h.mu.Unlock()
	st.sampling = map[string]float64{}
	for _, r := range res {
		for k, v := range r.Metrics {
			if strings.HasPrefix(k, "sampling_") {
				st.sampling[k] += v
			}
		}
	}
	h.runs = append(h.runs, st)
	return res, err
}

// seed returns iteration i's seed: the workload seed plus i modulo the
// cycle, so a run's inputs are a function of -seed alone.
func (h *harness) seed(i int) string {
	return strconv.FormatUint(h.cfg.seed+uint64(i%seedCycle), 10)
}

// scenario runs one engine.Run of a scenario on the local pool and
// checks its result: sound by check, and bit-identical to every earlier
// run of the same seed.
func (h *harness) scenario(ctx context.Context, i int, name string, opts engine.Options, check func([]*engine.Result) error) error {
	opts.Seed = h.seed(i)
	res, err := h.run(ctx, name, opts, h.local())
	if err != nil {
		return err
	}
	return errors.Join(check(res), h.repeatable(opts.Seed, res))
}

// cacheSession is one fleet-cache iteration: tables on a seed no earlier
// session used, through a cache over the worker fleet in a fresh
// directory (every request a miss the fleet evaluates and the cache
// writes), then again through a new cache executor on that directory
// (every request a disk hit).
func (h *harness) cacheSession(ctx context.Context, i int) error {
	seed := strconv.FormatUint(h.cfg.seed+uint64(i), 10)
	dir, err := os.MkdirTemp(h.cfg.workdir, "cache-")
	if err != nil {
		return fmt.Errorf("cache dir: %w", err)
	}
	defer os.RemoveAll(dir)
	fleet := timed{"dist", h.fleet.remote, h.rec}
	leg := func(c *cache.Executor) ([]*engine.Result, cache.Stats, error) {
		res, err := h.run(ctx, "tables", engine.Options{Seed: seed}, timed{"cache", c, h.rec})
		return res, c.Stats(), err
	}
	cold, cs, err := leg(cache.New(fleet, cache.Options{Dir: dir}))
	if err != nil {
		return err
	}
	warm, ws, err := leg(cache.New(fleet, cache.Options{Dir: dir}))
	if err != nil {
		return err
	}
	h.mu.Lock()
	for _, s := range []cache.Stats{cs, ws} {
		h.caches.Hits += s.Hits
		h.caches.DiskHits += s.DiskHits
		h.caches.Misses += s.Misses
		h.caches.WriteFails += s.WriteFails
		h.caches.Corrupt += s.Corrupt
	}
	h.mu.Unlock()
	var errs []error
	if cs.DiskHits != 0 || cs.Misses == 0 {
		errs = append(errs, fmt.Errorf("cold leg on a fresh directory: %d disk hits, %d misses", cs.DiskHits, cs.Misses))
	}
	if ws.Misses != 0 || ws.DiskHits == 0 {
		errs = append(errs, fmt.Errorf("warm leg: %d misses, %d disk hits (want all hits)", ws.Misses, ws.DiskHits))
	}
	if cs.WriteFails+cs.Corrupt+ws.WriteFails+ws.Corrupt != 0 {
		errs = append(errs, fmt.Errorf("cache: %d write failures, %d corrupt entries", cs.WriteFails+ws.WriteFails, cs.Corrupt+ws.Corrupt))
	}
	if digest(cold) != digest(warm) {
		errs = append(errs, errors.New("warm leg result differs from the cold leg's"))
	}
	return errors.Join(append(errs, checkTables(cold))...)
}

// digest hashes everything a run reports: the marshalled results and
// their report text.
func digest(res []*engine.Result) [32]byte {
	h := sha256.New()
	for _, r := range res {
		js, err := json.Marshal(r)
		if err != nil {
			fmt.Fprintf(h, "unmarshallable result: %v", err)
		}
		h.Write(js)
		h.Write([]byte(r.Text))
	}
	var d [32]byte
	copy(d[:], h.Sum(nil))
	return d
}

// repeatable fails when a seed's results differ from its first run's.
func (h *harness) repeatable(seed string, res []*engine.Result) error {
	d := digest(res)
	h.mu.Lock()
	defer h.mu.Unlock()
	first, seen := h.digests[seed]
	if !seen {
		h.digests[seed] = d
		return nil
	}
	if first != d {
		return fmt.Errorf("seed %s: result digest differs from its first run", seed)
	}
	return nil
}

// paperMinEfficiency is the smallest cell of the paper's §3.2.5 tables
// (83%, R_max = 120 at D = 55, in both); every estimate of it at smoke
// scale or above lands within tablesTolerance.
const (
	paperMinEfficiency = 0.83
	tablesTolerance    = 0.05
)

// checkTables checks a tables run against the paper and for a capped
// convergence point (an estimate that never reached its target).
func checkTables(res []*engine.Result) error {
	var errs []error
	for _, r := range res {
		for _, k := range []string{"t1_min_eff", "t2_min_eff"} {
			v, ok := r.Metrics[k]
			if !ok || math.Abs(v-paperMinEfficiency) > tablesTolerance || v > 1 {
				errs = append(errs, fmt.Errorf("%s = %v, want within %g of the paper's %g", k, v, tablesTolerance, paperMinEfficiency))
			}
		}
		if c := r.Metrics["sampling_capped"]; c > 0 {
			errs = append(errs, fmt.Errorf("%v estimation points capped before reaching their target", c))
		}
	}
	return errors.Join(errs...)
}

// checkTestbed checks what holds for any building: carrier sense
// delivers a positive share of the optimum and never more than all of it.
func checkTestbed(res []*engine.Result) error {
	var errs []error
	n := 0
	for _, r := range res {
		for k, v := range r.Metrics {
			switch {
			case strings.HasSuffix(k, "_cs_frac"):
				n++
				if !(v > 0 && v <= 1) {
					errs = append(errs, fmt.Errorf("%s = %v, want in (0, 1]", k, v))
				}
			case strings.HasSuffix(k, "_optimal_pkts") && !(v > 0):
				errs = append(errs, fmt.Errorf("%s = %v, want > 0", k, v))
			}
		}
	}
	if n == 0 {
		errs = append(errs, errors.New("testbed reported no carrier sense share"))
	}
	return errors.Join(errs...)
}

// fleet is fleetWorkers in-process workers and the Remote dialing them.
type fleet struct {
	remote *dist.Remote
	cancel context.CancelFunc
	errs   chan error // one per worker, when its Serve returns
	n      int
}

// startFleet serves fleetWorkers workers on loopback ports.
func startFleet() (*fleet, error) {
	ctx, cancel := context.WithCancel(context.Background())
	f := &fleet{cancel: cancel, errs: make(chan error, fleetWorkers)}
	var hosts []string
	for i := 0; i < fleetWorkers; i++ {
		ready := make(chan net.Addr, 1)
		f.n++
		go func() { f.errs <- dist.Serve(ctx, "127.0.0.1:0", ready) }()
		select {
		case addr := <-ready:
			hosts = append(hosts, addr.String())
		case err := <-f.errs:
			f.n--
			return nil, errors.Join(fmt.Errorf("start worker: %w", err), f.stop())
		}
	}
	remote, err := dist.NewRemote(hosts, dist.RemoteOptions{})
	if err != nil {
		return nil, errors.Join(err, f.stop())
	}
	f.remote = remote
	return f, nil
}

// stop drains the workers and waits until each has returned.
func (f *fleet) stop() error {
	if f.remote != nil {
		f.remote.Close()
	}
	f.cancel()
	var errs []error
	for ; f.n > 0; f.n-- {
		if err := <-f.errs; err != nil {
			errs = append(errs, fmt.Errorf("worker: %w", err))
		}
	}
	return errors.Join(errs...)
}

// iteration is one timed pass of the loop.
type iteration struct {
	wall   time.Duration
	ref    time.Duration // the reference loop's time around this iteration
	traced bool
	err    error
}

// loop runs the warm-up, calls started, then runs the timed iterations,
// timing the reference loop before the first and after each one. On a
// host too slow to fit minIterations into cfg.seconds, the loop runs
// longer rather than report a tail with too few samples beyond it. With
// tracing on, odd iterations are traced and even ones are not, so the
// two halves run under the same conditions and their difference is the
// tracing overhead.
func (h *harness) loop(ctx context.Context, started func()) []iteration {
	h.rec.on.Store(false)
	if err := h.w.iterate(h, ctx, 0); err != nil {
		return []iteration{{err: fmt.Errorf("warm-up: %w", err)}}
	}
	h.runs = nil
	var its []iteration
	started()
	start := time.Now()
	before := reference()
	for i := 1; ; i++ {
		if h.cfg.iters > 0 && len(its) >= h.cfg.iters ||
			h.cfg.iters == 0 && len(its) >= minIterations && time.Since(start).Seconds() >= h.cfg.seconds {
			break
		}
		if ctx.Err() != nil {
			its = append(its, iteration{err: ctx.Err()})
			break
		}
		traced := h.cfg.trace && len(its)%2 == 1
		h.mu.Lock()
		h.requests = h.requests[:0]
		h.mu.Unlock()
		h.rec.on.Store(traced)
		ictx, end := h.rec.begin(ctx, "iteration", montecarlo.Request{})
		t0 := time.Now()
		err := h.w.iterate(h, ictx, i)
		wall := time.Since(t0)
		end()
		h.rec.on.Store(false)
		if traced {
			h.mu.Lock()
			h.replayed = append(h.replayed[:0], h.requests...)
			h.mu.Unlock()
		}
		after := reference()
		its = append(its, iteration{wall: wall, ref: (before + after) / 2, traced: traced, err: err})
		before = after
	}
	return its
}

// equalStates reports whether two executor results are bit-identical.
func equalStates(a, b []montecarlo.Accumulator) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].State() != b[i].State() {
			return false
		}
	}
	return true
}
