// Package obs is the unified observability layer: a process-wide
// metrics registry (atomic counters, gauges, and fixed-bucket latency
// histograms) with Prometheus text exposition, plus a shard-lifecycle
// tracer (trace.go) emitting Chrome trace_event JSON.
//
// Design constraints, in order:
//
//  1. Observational inertness. Nothing here may influence what the
//     engine computes: metrics are write-only from the hot path's
//     point of view, and no instrumented package ever branches on a
//     metric value. Artifacts are byte-identical with observability
//     on or off.
//  2. Zero allocations on the hot path. Metric handles are resolved
//     once (package init or setup) and held; Add/Inc/Set/Observe are
//     plain atomic operations. The registry lock is only taken at
//     handle creation and scrape time.
//  3. No dependencies. The package imports only the standard library,
//     so every layer — montecarlo, dist, cache, sampling, engine —
//     can register metrics without import cycles.
package obs

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is not
// registered; obtain counters from a Registry.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. Negative deltas are ignored —
// counters only go up.
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Gauge is an integer-valued metric that can go up and down.
type Gauge struct {
	v atomic.Int64
}

// Add moves the gauge by n (negative to decrement).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc and Dec move the gauge by one.
func (g *Gauge) Inc() { g.v.Add(1) }
func (g *Gauge) Dec() { g.v.Add(-1) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// atomicFloat accumulates a float64 with compare-and-swap.
type atomicFloat struct {
	bits atomic.Uint64
}

func (f *atomicFloat) Add(v float64) {
	for {
		old := f.bits.Load()
		next := math.Float64frombits(old) + v
		if f.bits.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

func (f *atomicFloat) Value() float64 { return math.Float64frombits(f.bits.Load()) }

// DefBuckets are the default latency buckets, in seconds: 100µs up to
// two minutes, roughly logarithmic. They cover everything from one
// in-process shard evaluation (~100µs at ShardSize=4096) to a
// `-scale full` sim replication batch over a slow wire.
var DefBuckets = []float64{
	0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05,
	0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// Histogram is a fixed-bucket distribution. Observations are atomic;
// bucket bounds are immutable after creation. It is exported in the
// standard Prometheus cumulative form (_bucket{le=...}, _sum, _count).
type Histogram struct {
	bounds []float64      // upper bounds, strictly increasing
	counts []atomic.Int64 // len(bounds)+1; last is +Inf
	count  atomic.Int64
	sum    atomicFloat
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Linear scan: bucket counts are ~20 and the common observations
	// land in the first half; this beats sort.SearchFloat64s's call
	// overhead and allocates nothing.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.sum.Add(v)
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 { return h.sum.Value() }

// Quantile estimates the q-th quantile of the observed distribution
// by walking the cumulative bucket counts and interpolating linearly
// inside the bucket where the target rank lands — the same estimate a
// Prometheus histogram_quantile() would give over one scrape. Mass in
// the +Inf bucket reports the largest finite bound (the histogram
// cannot see past it). Returns 0 with no observations; q is clamped
// to [0, 1]. Concurrent Observe calls make the walk a snapshot, which
// is all its consumers (hedging thresholds) need.
func (h *Histogram) Quantile(q float64) float64 {
	total := h.count.Load()
	if total == 0 || len(h.bounds) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	} else if q > 1 {
		q = 1
	}
	target := q * float64(total)
	var cum float64
	for i, bound := range h.bounds {
		c := float64(h.counts[i].Load())
		if cum+c >= target {
			lower := 0.0
			if i > 0 {
				lower = h.bounds[i-1]
			}
			if c == 0 {
				return bound
			}
			return lower + (bound-lower)*((target-cum)/c)
		}
		cum += c
	}
	return h.bounds[len(h.bounds)-1]
}

// Label is one metric dimension. Labels are rendered sorted by key, so
// the same set in any order names the same series.
type Label struct {
	Key, Value string
}

type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindGaugeFunc
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge, kindGaugeFunc:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "untyped"
}

// metric is one registered series.
type metric struct {
	name   string
	labels string // pre-rendered {k="v",...}, "" when unlabeled
	help   string
	kind   metricKind

	c  *Counter
	g  *Gauge
	h  *Histogram
	fn func() float64
}

// Registry holds named metrics and renders them as Prometheus text.
// Handle creation is idempotent: asking twice for the same name and
// label set returns the same handle, so package-level registration and
// repeated setup paths (tests, multiple Remote executors over one
// fleet) compose without double-registration errors.
type Registry struct {
	mu      sync.Mutex
	byKey   map[string]*metric
	kinds   map[string]metricKind // name → kind, enforced across label sets
	metrics []*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byKey: map[string]*metric{}, kinds: map[string]metricKind{}}
}

var defaultRegistry = NewRegistry()

// Default returns the process-wide registry every instrumented package
// registers into — the one `cs serve` and `-metrics-listen` expose.
func Default() *Registry { return defaultRegistry }

// validName matches the Prometheus metric and label name grammar.
func validName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_', r == ':':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// renderLabels renders a sorted, escaped {k="v",...} suffix.
func renderLabels(labels []Label) string {
	if len(labels) == 0 {
		return ""
	}
	ls := append([]Label(nil), labels...)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range ls {
		if !validName(l.Key) {
			panic(fmt.Sprintf("obs: invalid label name %q", l.Key))
		}
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabelValue(l.Value))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// register resolves or creates the series for (name, labels). make is
// called with the lock held when the series does not exist yet.
func (r *Registry) register(name, help string, kind metricKind, labels []Label, make func(*metric)) *metric {
	if !validName(name) {
		panic(fmt.Sprintf("obs: invalid metric name %q", name))
	}
	suffix := renderLabels(labels)
	key := name + suffix
	r.mu.Lock()
	defer r.mu.Unlock()
	if existing, ok := r.byKey[key]; ok {
		if existing.kind != kind {
			panic(fmt.Sprintf("obs: metric %q re-registered as %s (was %s)", key, kind, existing.kind))
		}
		return existing
	}
	if prev, ok := r.kinds[name]; ok && prev != kind {
		panic(fmt.Sprintf("obs: metric name %q used as both %s and %s", name, prev, kind))
	}
	m := &metric{name: name, labels: suffix, help: help, kind: kind}
	make(m)
	r.byKey[key] = m
	r.kinds[name] = kind
	r.metrics = append(r.metrics, m)
	return m
}

// Counter returns the counter registered under name and labels,
// creating it on first use.
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	m := r.register(name, help, kindCounter, labels, func(m *metric) { m.c = &Counter{} })
	return m.c
}

// Gauge returns the gauge registered under name and labels, creating
// it on first use.
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	m := r.register(name, help, kindGauge, labels, func(m *metric) { m.g = &Gauge{} })
	return m.g
}

// GaugeFunc registers a gauge whose value is computed at scrape time
// (process uptime, pool sizes). The first registration's fn wins; fn
// must not touch the registry.
func (r *Registry) GaugeFunc(name, help string, fn func() float64, labels ...Label) {
	if fn == nil {
		panic("obs: nil GaugeFunc")
	}
	r.register(name, help, kindGaugeFunc, labels, func(m *metric) { m.fn = fn })
}

// Histogram returns the histogram registered under name and labels,
// creating it on first use. bounds must be strictly increasing; nil
// selects DefBuckets. Bounds are fixed by the first registration.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	m := r.register(name, help, kindHistogram, labels, func(m *metric) {
		if bounds == nil {
			bounds = DefBuckets
		}
		for i := 1; i < len(bounds); i++ {
			if bounds[i] <= bounds[i-1] {
				panic(fmt.Sprintf("obs: histogram %q bounds not strictly increasing: %v", name, bounds))
			}
		}
		m.h = &Histogram{
			bounds: append([]float64(nil), bounds...),
			counts: make([]atomic.Int64, len(bounds)+1),
		}
	})
	return m.h
}

// snapshotMetrics copies the metric list under the lock; values are
// read lock-free afterwards (GaugeFuncs may be arbitrarily slow and
// must never be called with the registry lock held).
func (r *Registry) snapshotMetrics() []*metric {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*metric(nil), r.metrics...)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders every series in the Prometheus text format
// (version 0.0.4), grouped by family with one HELP/TYPE header each,
// sorted by name then label set.
func (r *Registry) WritePrometheus(w io.Writer) error {
	ms := r.snapshotMetrics()
	sort.SliceStable(ms, func(i, j int) bool {
		if ms[i].name != ms[j].name {
			return ms[i].name < ms[j].name
		}
		return ms[i].labels < ms[j].labels
	})
	var b strings.Builder
	lastFamily := ""
	for _, m := range ms {
		if m.name != lastFamily {
			lastFamily = m.name
			if m.help != "" {
				fmt.Fprintf(&b, "# HELP %s %s\n", m.name, strings.ReplaceAll(m.help, "\n", " "))
			}
			fmt.Fprintf(&b, "# TYPE %s %s\n", m.name, m.kind)
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&b, "%s%s %d\n", m.name, m.labels, m.c.Value())
		case kindGauge:
			fmt.Fprintf(&b, "%s%s %d\n", m.name, m.labels, m.g.Value())
		case kindGaugeFunc:
			fmt.Fprintf(&b, "%s%s %s\n", m.name, m.labels, formatFloat(m.fn()))
		case kindHistogram:
			writeHistogram(&b, m)
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// writeHistogram renders one histogram series in cumulative form.
func writeHistogram(b *strings.Builder, m *metric) {
	// The le label joins any existing labels inside one brace pair.
	open, close := "{", "}"
	if m.labels != "" {
		open = m.labels[:len(m.labels)-1] + ","
	}
	var cum int64
	for i, bound := range m.h.bounds {
		cum += m.h.counts[i].Load()
		fmt.Fprintf(b, "%s_bucket%sle=\"%s\"%s %d\n", m.name, open, formatFloat(bound), close, cum)
	}
	cum += m.h.counts[len(m.h.bounds)].Load()
	fmt.Fprintf(b, "%s_bucket%sle=\"+Inf\"%s %d\n", m.name, open, close, cum)
	fmt.Fprintf(b, "%s_sum%s %s\n", m.name, m.labels, formatFloat(m.h.Sum()))
	fmt.Fprintf(b, "%s_count%s %d\n", m.name, m.labels, m.h.Count())
}

// SnapshotFlows captures every monotone series — counters, and
// histograms as <name>_sum and <name>_count entries — keyed by
// name+labels. Gauges and gauge funcs are levels (in-flight batches,
// uptime); a delta between two of their readings is noise, so flow
// snapshots are what the engine diffs to attribute per-variant stage
// timings without per-variant metric plumbing.
func (r *Registry) SnapshotFlows() map[string]float64 {
	ms := r.snapshotMetrics()
	out := make(map[string]float64, len(ms))
	for _, m := range ms {
		switch m.kind {
		case kindCounter:
			out[m.name+m.labels] = float64(m.c.Value())
		case kindHistogram:
			out[m.name+"_sum"+m.labels] = m.h.Sum()
			out[m.name+"_count"+m.labels] = float64(m.h.Count())
		}
	}
	return out
}

// SnapshotDelta returns post minus pre, per key, dropping zero deltas.
// Keys only present in post (metrics born between the snapshots) count
// from zero.
func SnapshotDelta(pre, post map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range post {
		if d := v - pre[k]; d != 0 {
			out[k] = d
		}
	}
	return out
}

// SumByPrefix sums every value in a snapshot (or delta) whose key
// starts with prefix — e.g. all workers' cs_dist_batch_seconds_sum
// series regardless of label.
func SumByPrefix(snap map[string]float64, prefix string) float64 {
	var total float64
	for k, v := range snap {
		if strings.HasPrefix(k, prefix) && (len(k) == len(prefix) || k[len(prefix)] == '{') {
			total += v
		}
	}
	return total
}

// Handler returns an http.Handler serving the registry in Prometheus
// text format — mount it on /metrics.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		_ = r.WritePrometheus(w)
	})
}
