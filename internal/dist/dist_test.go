package dist_test

// The distributed executor's contract tests: bit-identical results at
// any fleet size, failover when workers die mid-run, and fail-fast on
// protocol-level rejections. Workers are in-process httptest servers
// running the same dist.Server a `cs serve` process would.

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"carriersense/internal/dist"
	"carriersense/internal/montecarlo"
	"carriersense/internal/rng"
)

// distTestParams parameterize the test kernel.
type distTestParams struct {
	Scale float64 `json:"scale"`
}

func distTestEval(scale float64) montecarlo.EvalFunc {
	return func(src *rng.Source, out []float64) {
		out[0] = scale * src.Float64()
		out[1] = src.Exp(1)
		out[2] = src.Normal(0, 1) * src.Normal(0, 1)
	}
}

func init() {
	montecarlo.RegisterKernel("dist-test/vec", func(raw json.RawMessage) (montecarlo.EvalFunc, error) {
		var p distTestParams
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, err
		}
		return distTestEval(p.Scale), nil
	})
}

func testRequest(t *testing.T, samples int) montecarlo.Request {
	t.Helper()
	raw, err := json.Marshal(distTestParams{Scale: 2.5})
	if err != nil {
		t.Fatal(err)
	}
	return montecarlo.Request{
		Kernel: "dist-test/vec", Params: raw, Seed: 12345, Samples: samples, Dim: 3,
	}
}

// startWorkers boots n in-process workers and returns their host:port
// addresses (what the -workers flag would carry).
func startWorkers(t *testing.T, n int) []string {
	t.Helper()
	hosts := make([]string, n)
	for i := range hosts {
		srv := httptest.NewServer(dist.NewServer())
		t.Cleanup(srv.Close)
		hosts[i] = strings.TrimPrefix(srv.URL, "http://")
	}
	return hosts
}

func estimates(accs []montecarlo.Accumulator) []montecarlo.Estimate {
	out := make([]montecarlo.Estimate, len(accs))
	for i := range accs {
		out[i] = accs[i].Estimate()
	}
	return out
}

func TestRemoteBitIdenticalToLocalAtAnyFleetSize(t *testing.T) {
	req := testRequest(t, 7*montecarlo.ShardSize+501)
	local, err := dist.Local{}.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want := estimates(local)
	for _, fleet := range []int{1, 2, 5} {
		remote, err := dist.NewRemote(startWorkers(t, fleet), dist.RemoteOptions{BatchSize: 2})
		if err != nil {
			t.Fatal(err)
		}
		accs, err := remote.EstimateVec(context.Background(), req)
		if err != nil {
			t.Fatalf("fleet=%d: %v", fleet, err)
		}
		got := estimates(accs)
		for j := range got {
			if got[j] != want[j] {
				t.Errorf("fleet=%d component %d: remote %+v != local %+v", fleet, j, got[j], want[j])
			}
		}
	}
}

// flakyWorker serves shard jobs normally until its request budget
// runs out, after which every connection is severed mid-request — the
// closest an httptest server gets to kill -9 on a worker process.
type flakyWorker struct {
	inner    http.Handler
	survives int64 // shard requests served before dying
	served   atomic.Int64
	// died, when non-nil, is closed at the first severed request.
	died     chan struct{}
	diedOnce sync.Once
}

func (f *flakyWorker) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == dist.PathShards && f.served.Add(1) > f.survives {
		if f.died != nil {
			f.diedOnce.Do(func() { close(f.died) })
		}
		panic(http.ErrAbortHandler)
	}
	f.inner.ServeHTTP(w, r)
}

// startHeldWorker boots a healthy worker that holds every shard
// request until release is closed. Holding the healthy worker until the
// flaky one has died makes a mid-run death test exercise the death
// path on any schedule: otherwise the healthy worker can drain the
// queue before the flaky one reaches its death threshold.
func startHeldWorker(t *testing.T, release <-chan struct{}) string {
	t.Helper()
	inner := dist.NewServer()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == dist.PathShards {
			<-release
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

func TestFailoverWorkerKilledMidRun(t *testing.T) {
	req := testRequest(t, 9*montecarlo.ShardSize)
	local, err := montecarlo.RunRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	want := estimates(local)

	// One healthy worker, held until the other has died after two
	// shard batches.
	flaky := &flakyWorker{inner: dist.NewServer(), survives: 2, died: make(chan struct{})}
	flakySrv := httptest.NewServer(flaky)
	defer flakySrv.Close()
	hosts := []string{startHeldWorker(t, flaky.died), strings.TrimPrefix(flakySrv.URL, "http://")}
	// flakyWorker counts and aborts JSON shard POSTs; pin the wire so
	// the death path is what this test exercises (stream_test.go covers
	// mid-run death on the binary wire).
	remote, err := dist.NewRemote(hosts, dist.RemoteOptions{
		BatchSize: 1, Concurrency: 1, HostFailLimit: 2, Wire: dist.WireJSON,
	})
	if err != nil {
		t.Fatal(err)
	}
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatalf("run with mid-flight worker death failed: %v", err)
	}
	if flaky.served.Load() <= 2 {
		t.Fatalf("flaky worker served %d requests; test never exercised the death path", flaky.served.Load())
	}
	got := estimates(accs)
	for j := range got {
		if got[j] != want[j] {
			t.Errorf("component %d after failover: %+v != local %+v", j, got[j], want[j])
		}
	}
}

func TestWorkerDeadFromTheStart(t *testing.T) {
	req := testRequest(t, 3*montecarlo.ShardSize)
	local, _ := montecarlo.RunRequest(context.Background(), req)
	want := estimates(local)

	// A worker whose port is already closed plus a healthy one.
	deadSrv := httptest.NewServer(dist.NewServer())
	deadHost := strings.TrimPrefix(deadSrv.URL, "http://")
	deadSrv.Close()
	hosts := append([]string{deadHost}, startWorkers(t, 1)...)
	remote, err := dist.NewRemote(hosts, dist.RemoteOptions{BatchSize: 1, HostFailLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatalf("run with a dead worker in the fleet failed: %v", err)
	}
	got := estimates(accs)
	for j := range got {
		if got[j] != want[j] {
			t.Errorf("component %d: %+v != local %+v", j, got[j], want[j])
		}
	}
}

func TestDeadWorkerStaysAbandonedAcrossEstimations(t *testing.T) {
	// With readmission off, worker health persists for the Remote's
	// lifetime: a scenario with many estimation points must pay the
	// death-detection cost once, not re-probe the corpse at every
	// point. (Default readmission probes /healthz in the background —
	// readmit_test.go covers that path.)
	flaky := &flakyWorker{inner: dist.NewServer(), survives: 0}
	flakySrv := httptest.NewServer(flaky)
	defer flakySrv.Close()
	hosts := append(startWorkers(t, 1), strings.TrimPrefix(flakySrv.URL, "http://"))
	// HostFailLimit 1 so the very first abort kills the host; with a
	// higher limit the healthy worker can drain the queue while the
	// flaky loop sits in its jittered retry backoff, ending the run
	// before the limit is ever reached.
	remote, err := dist.NewRemote(hosts, dist.RemoteOptions{
		BatchSize: 1, Concurrency: 1, HostFailLimit: 1, Wire: dist.WireJSON,
		ReadmitBase: dist.ReadmitOff,
	})
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest(t, 4*montecarlo.ShardSize)
	if _, err := remote.EstimateVec(context.Background(), req); err != nil {
		t.Fatalf("first estimation: %v", err)
	}
	probes := flaky.served.Load()
	if probes == 0 {
		t.Fatal("flaky worker was never probed; test setup broken")
	}
	if _, err := remote.EstimateVec(context.Background(), req); err != nil {
		t.Fatalf("second estimation: %v", err)
	}
	if again := flaky.served.Load(); again != probes {
		t.Errorf("dead worker re-probed: %d requests after first run, %d after second", probes, again)
	}
}

func TestAllWorkersDeadFailsTheRun(t *testing.T) {
	srv := httptest.NewServer(dist.NewServer())
	host := strings.TrimPrefix(srv.URL, "http://")
	srv.Close()
	remote, err := dist.NewRemote([]string{host}, dist.RemoteOptions{HostFailLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := remote.EstimateVec(context.Background(), testRequest(t, montecarlo.ShardSize)); err == nil {
		t.Fatal("run with an all-dead fleet succeeded")
	}
}

func TestConcurrentEstimationsOnDyingFleetAllFail(t *testing.T) {
	// Two estimations share one Remote whose only worker is dead. One
	// estimation's loops declare the host dead; the other's loops must
	// still reach a verdict (error), not hang waiting for workers that
	// already exited.
	srv := httptest.NewServer(dist.NewServer())
	host := strings.TrimPrefix(srv.URL, "http://")
	srv.Close()
	remote, err := dist.NewRemote([]string{host}, dist.RemoteOptions{HostFailLimit: 2})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, err := remote.EstimateVec(context.Background(), testRequest(t, 4*montecarlo.ShardSize))
			errs <- err
		}()
	}
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil {
				t.Error("estimation on a dead fleet succeeded")
			}
		case <-time.After(30 * time.Second):
			t.Fatal("concurrent estimation hung")
		}
	}
}

func TestUnknownKernelFailsTheRun(t *testing.T) {
	remote, err := dist.NewRemote(startWorkers(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	req := montecarlo.Request{Kernel: "dist-test/no-such-kernel", Seed: 1, Samples: montecarlo.ShardSize, Dim: 1}
	if _, err := remote.EstimateVec(context.Background(), req); err == nil {
		t.Fatal("unknown kernel accepted")
	} else if !strings.Contains(err.Error(), "unknown kernel") {
		t.Errorf("error does not carry the rejection cause: %v", err)
	}
}

func TestRejectingWorkerIsSurvivable(t *testing.T) {
	// A fleet member that rejects jobs at the protocol level — version
	// skew, or some unrelated HTTP service at the address — must be
	// abandoned like a dead worker, not fail the run.
	notCS := httptest.NewServer(http.NotFoundHandler())
	defer notCS.Close()
	hosts := append(startWorkers(t, 1), strings.TrimPrefix(notCS.URL, "http://"))
	remote, err := dist.NewRemote(hosts, dist.RemoteOptions{BatchSize: 1})
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest(t, 4*montecarlo.ShardSize)
	local, _ := montecarlo.RunRequest(context.Background(), req)
	want := estimates(local)
	accs, err := remote.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatalf("run with a rejecting worker failed: %v", err)
	}
	got := estimates(accs)
	for j := range got {
		if got[j] != want[j] {
			t.Errorf("component %d: %+v != local %+v", j, got[j], want[j])
		}
	}
}

func TestContextCancellationStopsTheRun(t *testing.T) {
	remote, err := dist.NewRemote(startWorkers(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := remote.EstimateVec(ctx, testRequest(t, 50*montecarlo.ShardSize)); err == nil {
		t.Fatal("canceled run succeeded")
	}
}

func TestParseWorkerList(t *testing.T) {
	good, err := ParseList("localhost:8031, 10.0.0.7:9000,worker3:1")
	if err != nil {
		t.Fatalf("valid list rejected: %v", err)
	}
	if len(good) != 3 || good[0] != "localhost:8031" || good[1] != "10.0.0.7:9000" {
		t.Errorf("parsed = %v", good)
	}
	for _, bad := range []string{
		"", "  ", "localhost", "localhost:", ":8031", "localhost:0",
		"localhost:70000", "localhost:abc", "a:1,,b:2", "a:1,b",
	} {
		if _, err := ParseList(bad); err == nil {
			t.Errorf("ParseWorkerList(%q) accepted", bad)
		}
	}
}

// ParseList aliases dist.ParseWorkerList so the table above reads
// cleanly.
var ParseList = dist.ParseWorkerList

func TestHealthzAndStatsEndpoints(t *testing.T) {
	srv := httptest.NewServer(dist.NewServer())
	defer srv.Close()

	resp, err := http.Get(srv.URL + dist.PathHealthz)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %v %v", err, resp)
	}
	resp.Body.Close()

	// Run one job so stats have something to report.
	host := strings.TrimPrefix(srv.URL, "http://")
	remote, err := dist.NewRemote([]string{host})
	if err != nil {
		t.Fatal(err)
	}
	req := testRequest(t, 2*montecarlo.ShardSize)
	if _, err := remote.EstimateVec(context.Background(), req); err != nil {
		t.Fatal(err)
	}

	resp, err = http.Get(srv.URL + dist.PathStats)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("stats: %v %v", err, resp)
	}
	var stats dist.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if stats.Shards != 2 || stats.Samples != 2*montecarlo.ShardSize {
		t.Errorf("stats = %+v, want 2 shards / %d samples", stats, 2*montecarlo.ShardSize)
	}
	if len(stats.Kernels) == 0 {
		t.Error("stats reports no kernels")
	}

	// Malformed and invalid jobs are 400s, not 500s.
	for _, body := range []string{
		"{not json",
		`{"kernel":"dist-test/vec","seed":1,"samples":4096,"dim":3,"indices":[9]}`,
		`{"kernel":"dist-test/vec","seed":1,"samples":4096,"dim":3,"indices":[]}`,
		`{"kernel":"dist-test/vec","seed":1,"samples":16384,"dim":3,"indices":[2,2]}`,
	} {
		resp, err := http.Post(srv.URL+dist.PathShards, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %q: status %d, want 400", body, resp.StatusCode)
		}
		resp.Body.Close()
	}
}

func TestNewRemoteValidation(t *testing.T) {
	if _, err := dist.NewRemote(nil); err == nil {
		t.Error("empty fleet accepted")
	}
	if _, err := dist.NewRemote([]string{""}); err == nil {
		t.Error("empty worker address accepted")
	}
}
