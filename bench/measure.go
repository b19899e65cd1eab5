package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"time"

	"carriersense/internal/cache"
	"carriersense/internal/montecarlo"
)

// tailPct is the tail percentile run times are reported at: the highest
// one a 25-second loop of the slowest workload resolves on a 2-vCPU
// host, which runs 45–64 of its iterations. minIterations is the count
// that leaves minTail of them beyond it; the loop runs at least that
// many, so the reported tail always rests on ten samples.
const (
	tailPct       = 75
	minIterations = minTail * 100 / (100 - tailPct)
)

// metric is one measured value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload run: its outcome and every metric it produced,
// in the order they were measured.
type report struct {
	Workload  string            `json:"-"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Errors    []string          `json:"errors,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
	spans     []span
}

func (r *report) set(name string, v float64, unit string) {
	if _, dup := r.Metrics[name]; !dup {
		r.order = append(r.order, name)
	}
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func (r *report) fail(err error) {
	r.Failed++
	if len(r.Errors) < 10 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// correct reports whether every attempt succeeded and every check held.
func (r *report) correct() bool { return r.Failed == 0 && len(r.Errors) == 0 }

// measure runs one workload under cfg: the setup launches, the warm-up,
// the timed loop and, when tracing, the replay.
func measure(ctx context.Context, w workload, cfg config) (*report, error) {
	r := &report{Workload: w.name, Metrics: map[string]metric{}}
	setup, err := setupSeconds(w, cfg)
	if err != nil {
		return nil, err
	}
	h := newHarness(w, cfg)
	if w.fleet {
		if h.fleet, err = startFleet(); err != nil {
			return nil, err
		}
		defer func() {
			if serr := h.fleet.stop(); serr != nil {
				r.Errors = append(r.Errors, serr.Error())
			}
		}()
	}

	var before, after runtime.MemStats
	its, samples := h.timedLoop(ctx, &before, &after)
	// norm is an iteration's wall time in reference units: divided by
	// the reference loop's time around it.
	var plain, norm, normTraced, refs []float64
	var wallSum, normSum float64
	for _, it := range its {
		r.Attempted++
		if it.err != nil {
			r.fail(it.err)
			continue
		}
		w, x := it.wall.Seconds(), it.wall.Seconds()/it.ref.Seconds()
		wallSum += w
		normSum += x
		if it.traced {
			normTraced = append(normTraced, x)
			continue
		}
		plain = append(plain, w)
		norm = append(norm, x)
		refs = append(refs, ms(it.ref))
	}
	r.set("error_rate", float64(r.Failed)/float64(r.Attempted), "fraction")
	if len(plain) == 0 {
		return r, nil // every attempt failed; nothing was timed
	}
	n, timed := float64(len(its)), float64(len(plain)+len(normTraced))
	r.set("run_p50_ref", median(norm), "ref")
	r.set(fmt.Sprintf("run_p%d_ref", tailPct), percentile(norm, tailPct), "ref")
	r.set("runs_per_ref", timed/normSum, "1/ref")
	r.set("samples_per_ref", float64(samples)/normSum, "1/ref")
	r.set("setup_s", setup, "s")
	r.set("alloc_mb_per_run", float64(after.TotalAlloc-before.TotalAlloc)/1e6/n, "MB")
	r.set("peak_rss_mb", peakRSS(), "MB")
	r.set("run_p50_s", median(plain), "s")
	r.set(fmt.Sprintf("run_p%d_s", tailPct), percentile(plain, tailPct), "s")
	r.set("runs_per_s", timed/wallSum, "1/s")
	r.set("samples_per_s", float64(samples)/wallSum, "1/s")
	r.set("ref_ms_p50", median(refs), "ms")
	r.set("iterations", n, "count")
	r.set("tail_percentile", float64(tailPercentile(len(plain))), "pct")

	if !cfg.trace {
		return r, nil
	}
	out, rerr := h.replay(ctx)
	if rerr != nil {
		r.fail(rerr)
	}
	r.spans = h.rec.snapshot()
	h.layerMetrics(r, out)
	r.set("trace_overhead", median(normTraced)/median(norm)-1, "ratio")
	return r, nil
}

func newHarness(w workload, cfg config) *harness {
	return &harness{w: w, cfg: cfg, rec: newRecorder(), digests: map[string][32]byte{}}
}

// timedLoop runs loop between two memory snapshots and returns the
// iterations with the samples their requests spanned; the warm-up is
// outside both.
func (h *harness) timedLoop(ctx context.Context, before, after *runtime.MemStats) ([]iteration, int64) {
	var samples int64
	its := h.loop(ctx, func() {
		runtime.ReadMemStats(before)
		h.mu.Lock()
		samples = h.samples
		h.mu.Unlock()
	})
	runtime.ReadMemStats(after)
	h.mu.Lock()
	defer h.mu.Unlock()
	return its, h.samples - samples
}

// refIterations sizes the reference loop to about 20 ms on the 2-vCPU
// Xeon the benchmark was sized on: short next to an iteration, long
// next to timer noise.
const refIterations = 1_000_000

var refSink float64

// reference times a fixed compute-bound loop that shares no code with
// the program: a xorshift generator feeding log, exp and sqrt, the
// arithmetic the Monte Carlo kernels spend their time in. On a shared
// host the machine's speed drifts by tens of percent for minutes at a
// time; the iterations slow down with it, and so does this loop, so
// dividing one by the other cancels most of the drift. It allocates
// nothing and forces no collection, so an iteration's garbage is
// collected during the iterations, as it would be without the harness.
func reference() time.Duration {
	t0 := time.Now()
	x, s := uint64(0x9E3779B97F4A7C15), 0.0
	for i := 0; i < refIterations; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		u := float64(x>>11) / (1 << 53)
		s += math.Log(u+1e-12) * math.Exp(-u) / math.Sqrt(u+1)
	}
	refSink = s
	return time.Since(t0)
}

// layerMetrics derives the per-layer metrics from the runs' counters,
// the spans, and the replay.
func (h *harness) layerMetrics(r *report, out replayOutcome) {
	spans := r.spans
	kids := childrenOf(spans)
	var self []float64
	for _, s := range spans {
		if s.Phase == "loop" && s.Name == "engine" {
			self = append(self, ms(selfTime(s, kids[s.ID])))
		}
	}
	perRun := func(f func(runStats) float64) float64 {
		var xs []float64
		for _, st := range h.runs {
			xs = append(xs, f(st))
		}
		return median(xs)
	}
	r.set("engine.self_ms_p50", median(self), "ms")
	r.set("engine.estimates_per_run", perRun(func(s runStats) float64 { return float64(s.requests) }), "count")

	mc := pick(spans, "montecarlo", "replay.pool")
	r.set("montecarlo.estimate_ms_p50", median(durations(mc, ms)), "ms")
	setTail(r, "montecarlo.estimate_ms", durations(mc, ms), 99, "ms")
	r.set("montecarlo.shards_per_run", perRun(func(s runStats) float64 { return float64(s.shards) }), "count")
	serial := phase(spans, "replay.serial", "montecarlo")
	r.set("montecarlo.pool_speedup", total(serial)/total(phase(spans, "replay.pool", "montecarlo")), "x")

	r.set("core.ns_per_sample", nsPerSample(serial), "ns")
	byKernel := map[string][]span{}
	var sampled []span
	for _, s := range serial {
		byKernel[s.Kernel] = append(byKernel[s.Kernel], s)
		if s.Sampler != "" && s.Sampler != montecarlo.SamplerPlain {
			sampled = append(sampled, s)
		}
	}
	for _, k := range sortedKeys(byKernel) {
		r.set("core.ns_per_sample."+path.Base(k), nsPerSample(byKernel[k]), "ns")
	}
	if len(sampled) > 0 {
		r.set("rng.ns_per_sample", nsPerSample(sampled), "ns")
	}

	sampling := func(key string) func(runStats) float64 {
		return func(s runStats) float64 { return s.sampling[key] }
	}
	r.set("sampling.samples_to_target", perRun(sampling("sampling_spent")), "count")
	r.set("sampling.pilot_samples", perRun(sampling("sampling_pilot")), "count")
	r.set("sampling.requests_per_point", perRun(func(s runStats) float64 {
		if p := s.sampling["sampling_points"]; p > 0 {
			return float64(s.requests) / p
		}
		return 0
	}), "count")
	capped := 0.0
	for _, st := range h.runs {
		capped += st.sampling["sampling_capped"]
	}
	r.set("sampling.capped", capped, "count")

	r.set("testbed.combos_per_run", perRun(func(s runStats) float64 { return float64(s.combos) }), "count")
	var combos []float64
	for _, s := range spans {
		if s.Phase == "loop" && s.Name == "montecarlo" && s.Kernel == "testbed/combo" {
			combos = append(combos, ms(s.dur()))
		}
	}
	if len(combos) > 0 {
		r.set("testbed.combo_ms_p50", median(combos), "ms")
		setTail(r, "testbed.combo_ms", combos, 90, "ms")
	}

	cs := h.caches
	cs.Hits += out.caches.Hits
	cs.DiskHits += out.caches.DiskHits
	cs.Misses += out.caches.Misses
	cs.WriteFails += out.caches.WriteFails
	cs.Corrupt += out.caches.Corrupt
	r.set("cache.hit_ratio", hitRatio(h.caches), "ratio")
	var hits, missSelf []float64
	for _, s := range pick(spans, "cache", "replay.cache") {
		if c := kids[s.ID]; len(c) > 0 {
			missSelf = append(missSelf, us(selfTime(s, c)))
		} else {
			hits = append(hits, us(s.dur()))
		}
	}
	r.set("cache.hit_us_p50", median(hits), "us")
	setTail(r, "cache.hit_us", hits, 90, "us")
	r.set("cache.miss_self_us_p50", median(missSelf), "us")
	r.set("cache.write_fails", float64(cs.WriteFails), "count")
	r.set("cache.corrupt", float64(cs.Corrupt), "count")

	r.set("dist.estimate_ms_p50", median(durations(pick(spans, "dist", "replay.fleet"), ms)), "ms")
	fleet := phase(spans, "replay.fleet", "dist")
	pool := phase(spans, "replay.pool", "montecarlo")
	shards := 0
	for _, s := range fleet {
		shards += montecarlo.ShardCount(s.Samples)
	}
	r.set("dist.us_per_shard", total(fleet)*1e6/float64(shards), "us")
	r.set("dist.overhead_us_per_shard", (total(fleet)-total(pool))*1e6/float64(shards), "us")
	r.set("dist.mismatches", float64(out.mismatches), "count")
}

// pick returns the loop's spans of a layer when the loop called it, and
// otherwise that layer's spans from the replay pass through it, so every
// workload reports every layer.
func pick(spans []span, name, replayPhase string) []span {
	if loop := phase(spans, "loop", name); len(loop) > 0 {
		return loop
	}
	return phase(spans, replayPhase, name)
}

func phase(spans []span, phase, name string) []span {
	var out []span
	for _, s := range spans {
		if s.Phase == phase && s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// setTail reports the p-th percentile of xs as <prefix>_p<p> when xs
// holds enough samples beyond it.
func setTail(r *report, prefix string, xs []float64, p int, unit string) {
	if tailPercentile(len(xs)) >= p {
		r.set(fmt.Sprintf("%s_p%d", prefix, p), percentile(xs, float64(p)), unit)
	}
}

func durations(spans []span, unit func(time.Duration) float64) []float64 {
	xs := make([]float64, len(spans))
	for i, s := range spans {
		xs[i] = unit(s.dur())
	}
	return xs
}

// total is the spans' summed duration in seconds.
func total(spans []span) float64 {
	var t time.Duration
	for _, s := range spans {
		t += s.dur()
	}
	return t.Seconds()
}

func nsPerSample(spans []span) float64 {
	n := 0
	for _, s := range spans {
		n += s.Samples
	}
	return total(spans) * 1e9 / float64(n)
}

func hitRatio(s cache.Stats) float64 {
	hits := s.Hits + s.DiskHits
	if hits+s.Misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+s.Misses)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// peakRSS is the process's peak resident set (VmHWM) in MB, NaN where
// /proc does not report it.
func peakRSS() float64 {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return math.NaN()
			}
			return kb * 1024 / 1e6
		}
	}
	return math.NaN()
}

// resetPeakRSS hands freed heap back to the OS and restarts VmHWM from
// the current resident set, so that a workload measured after another
// in the same process reports its own peak, not the earlier one's.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak RSS: %w", err)
	}
	return nil
}

// probeEnv carries "workload:seed:workdir" to a setup launch: a fresh
// process of this binary that gets the workload ready — executors
// built, fleet dialed, one smoke-scale iteration run — and exits.
const probeEnv = "CSBENCH_SETUP_PROBE"

// setupSeconds is the median wall time of cfg.launches setup launches,
// each from exec until the child exits ready.
func setupSeconds(w workload, cfg config) (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, fmt.Errorf("setup launch: %w", err)
	}
	var times []float64
	for i := 0; i < cfg.launches; i++ {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s:%d:%s", probeEnv, w.name, cfg.seed, cfg.workdir))
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return 0, fmt.Errorf("setup launch of %s: %w", w.name, err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// runProbe is the setup launch's side: it parses probeEnv's value and
// readies the workload.
func runProbe(spec string) error {
	name, rest, _ := strings.Cut(spec, ":")
	seedText, workdir, _ := strings.Cut(rest, ":")
	w, ok := lookupWorkload(name)
	if !ok {
		return fmt.Errorf("setup probe: unknown workload %q", name)
	}
	seed, err := strconv.ParseUint(seedText, 10, 64)
	if err != nil {
		return fmt.Errorf("setup probe: seed: %w", err)
	}
	h := newHarness(w, config{seed: seed, scale: "smoke", workdir: workdir})
	if w.fleet {
		if h.fleet, err = startFleet(); err != nil {
			return err
		}
	}
	err = w.iterate(h, context.Background(), 0)
	if h.fleet != nil {
		err = errors.Join(err, h.fleet.stop())
	}
	return err
}
