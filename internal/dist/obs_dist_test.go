package dist_test

// Observability acceptance: instrumentation must be observationally
// inert (deterministic artifacts byte-identical with metrics+trace on
// or off, cached and distributed), and both scrape surfaces — worker
// /metrics and the coordinator-side registry — must render parseable
// Prometheus text.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"carriersense/internal/cache"
	"carriersense/internal/dist"
	"carriersense/internal/engine"
	"carriersense/internal/fault"
	"carriersense/internal/montecarlo"
	"carriersense/internal/obs"
	"carriersense/internal/obs/promtest"
)

// volatileArtifacts are per-run observability outputs, excluded from
// byte-identity by design: they carry wall-clock timings (and, for
// the provenance manifest, creation time plus the execution shape).
var volatileArtifacts = map[string]bool{
	"metrics.json":  true,
	"timings.csv":   true,
	"manifest.json": true,
}

func runToDir(t *testing.T, exec montecarlo.Executor) string {
	t.Helper()
	dir := t.TempDir()
	_, err := engine.Run(context.Background(), "dist-test-scenario", engine.Options{
		Scale:    "smoke",
		Executor: exec,
		OutDir:   dir,
		Now:      time.Date(2026, 8, 1, 10, 0, 0, 0, time.UTC),
	})
	if err != nil {
		t.Fatalf("engine run: %v", err)
	}
	return filepath.Join(dir, "20260801-100000-dist-test-scenario")
}

func artifactNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if !volatileArtifacts[e.Name()] {
			names = append(names, e.Name())
		}
	}
	sort.Strings(names)
	return names
}

func TestObservabilityInert(t *testing.T) {
	// Baseline: local run, no tracer installed.
	plain := runToDir(t, nil)

	// Instrumented: distributed through a 2-worker fleet, behind the
	// result cache, with the trace recorder live.
	obs.SetTracer(obs.NewTracer())
	defer obs.SetTracer(nil)
	remote, err := dist.NewRemote(startWorkers(t, 2), dist.RemoteOptions{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	cached := cache.New(remote, cache.Options{Dir: t.TempDir()})
	traced := runToDir(t, cached)

	if tr := obs.CurrentTracer(); tr.Len() == 0 {
		t.Error("tracer recorded no events during an instrumented distributed run")
	}

	plainNames, tracedNames := artifactNames(t, plain), artifactNames(t, traced)
	if !strings.HasPrefix(strings.Join(tracedNames, ","), strings.Join(plainNames, ",")) ||
		len(plainNames) != len(tracedNames) {
		t.Fatalf("artifact sets differ: %v vs %v", plainNames, tracedNames)
	}
	for _, name := range plainNames {
		a, err := os.ReadFile(filepath.Join(plain, name))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(filepath.Join(traced, name))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s differs between plain and instrumented runs", name)
		}
	}

	// The volatile artifacts must exist in both runs, and the
	// distributed one must attribute dispatch time to the workers.
	for _, dir := range []string{plain, traced} {
		for name := range volatileArtifacts {
			if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
				t.Errorf("%s missing: %v", name, err)
			}
		}
	}
	timings, err := os.ReadFile(filepath.Join(traced, "timings.csv"))
	if err != nil {
		t.Fatal(err)
	}
	for _, stage := range []string{",wall,", ",estimate,", ",dispatch,"} {
		if !strings.Contains(string(timings), stage) {
			t.Errorf("distributed timings.csv lacks %q stage:\n%s", stage, timings)
		}
	}
}

func TestWorkerMetricsEndpointParses(t *testing.T) {
	srv := httptest.NewServer(dist.NewServer())
	defer srv.Close()
	resp, err := http.Get(srv.URL + dist.PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	parsed, err := promtest.CheckText(buf.String())
	if err != nil {
		t.Fatalf("worker /metrics is not valid Prometheus text: %v", err)
	}
	for family, kind := range map[string]string{
		"cs_worker_requests_total":     "counter",
		"cs_worker_inflight_batches":   "gauge",
		"cs_worker_uptime_seconds":     "gauge",
		"cs_worker_batch_eval_seconds": "histogram",
	} {
		if parsed.Types[family] != kind {
			t.Errorf("%s type = %q, want %q", family, parsed.Types[family], kind)
		}
	}
}

func TestCoordinatorRegistryParsesAfterDistributedRun(t *testing.T) {
	remote, err := dist.NewRemote(startWorkers(t, 2), dist.RemoteOptions{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	runScenario(t, remote)
	var buf bytes.Buffer
	if err := obs.Default().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	parsed, err := promtest.CheckText(buf.String())
	if err != nil {
		t.Fatalf("coordinator registry is not valid Prometheus text: %v", err)
	}
	// Per-worker dispatch histograms must exist with worker labels.
	perWorker := 0
	for series := range parsed.Samples {
		if strings.HasPrefix(series, `cs_dist_batch_seconds_count{`) &&
			strings.Contains(series, `worker="http://`) {
			perWorker++
		}
	}
	if perWorker < 2 {
		t.Errorf("found %d per-worker dispatch series, want >= 2 (fleet of 2)", perWorker)
	}
	if v, ok := parsed.Value(`cs_dist_wire_bytes_total{dir="tx"}`); !ok || v <= 0 {
		t.Errorf("tx wire bytes = %v (ok=%v), want > 0", v, ok)
	}
}

func TestStatsReportsDrainAndInflight(t *testing.T) {
	s := dist.NewServer()
	srv := httptest.NewServer(s)
	defer srv.Close()
	getStats := func() map[string]json.RawMessage {
		resp, err := http.Get(srv.URL + dist.PathStats)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var m map[string]json.RawMessage
		if err := json.NewDecoder(resp.Body).Decode(&m); err != nil {
			t.Fatal(err)
		}
		return m
	}
	before := getStats()
	for _, key := range []string{"uptime_seconds", "inflight_batches", "draining"} {
		if _, ok := before[key]; !ok {
			t.Errorf("/stats lacks %q: %v", key, before)
		}
	}
	if string(before["draining"]) != "false" {
		t.Errorf("draining = %s before drain", before["draining"])
	}
	if string(before["inflight_batches"]) != "0" {
		t.Errorf("inflight_batches = %s while idle", before["inflight_batches"])
	}
	s.BeginDrain()
	if after := getStats(); string(after["draining"]) != "true" {
		t.Errorf("draining = %s after BeginDrain", after["draining"])
	}
}

// The PR 8 chaos families — fault injections, readmission probes,
// hedged dispatch — must all be visible on a live worker /metrics
// scrape: declared with TYPE lines (package-init registration keeps
// them present even at zero), and the fired fault counted.
func TestWorkerMetricsScrapeCoversFaultAndFleetFamilies(t *testing.T) {
	srv := httptest.NewServer(dist.NewServer())
	defer srv.Close()

	// Baseline refuse count: the default registry is process-wide and
	// other tests in the package may have fired refusals already.
	refusedBefore := obs.Default().SnapshotFlows()[`cs_fault_injected_total{kind="refuse"}`]

	// Arm a refuse-once plan and trip it: the worker severs the
	// connection without a response, exactly like a dead TCP peer.
	sched, err := fault.Parse("w1:refuse=1,seed=1")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(sched.Plan("w1"))
	if _, err := http.Get(srv.URL + dist.PathHealthz); err == nil {
		t.Fatal("refused request completed; want severed connection")
	}
	// Disarm before scraping so the scrape itself is not refused.
	fault.Install(nil)

	resp, err := http.Get(srv.URL + dist.PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	parsed, err := promtest.CheckText(buf.String())
	if err != nil {
		t.Fatalf("worker /metrics is not valid Prometheus text: %v", err)
	}
	for family, kind := range map[string]string{
		"cs_fault_injected_total":          "counter",
		"cs_dist_readmit_probes_total":     "counter",
		"cs_dist_workers_readmitted_total": "counter",
		"cs_dist_hedges_total":             "counter",
		"cs_dist_workers_abandoned_total":  "counter",
	} {
		if parsed.Types[family] != kind {
			t.Errorf("%s type = %q, want %q", family, parsed.Types[family], kind)
		}
	}
	refuse, ok := parsed.Value(`cs_fault_injected_total{kind="refuse"}`)
	if !ok || refuse < refusedBefore+1 {
		t.Errorf("refuse injections on scrape = %v (ok=%v), want >= %v", refuse, ok, refusedBefore+1)
	}
}
