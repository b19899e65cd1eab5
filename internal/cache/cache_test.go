package cache

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"

	"carriersense/internal/dist"
	"carriersense/internal/montecarlo"
	"carriersense/internal/rng"
)

// The test kernel: a scalar integrand with one serialized knob,
// registered once for this package's tests.
type testParams struct {
	Scale float64 `json:"scale"`
}

func init() {
	montecarlo.RegisterKernel("cachetest/scaled", 2, func(raw json.RawMessage) (montecarlo.BatchEvalFunc, error) {
		var p testParams
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, err
		}
		return montecarlo.BatchLoop(2, func(src *rng.Source, out []float64) {
			out[0] = p.Scale * src.Float64()
			out[1] = src.Normal(0, 1)
		}), nil
	})
}

// countingExecutor wraps an inner executor and counts evaluations.
type countingExecutor struct {
	inner montecarlo.Executor
	calls atomic.Int64
}

func (c *countingExecutor) EstimateVec(ctx context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	c.calls.Add(1)
	return c.inner.EstimateVec(ctx, req)
}

func testReq(scale float64, seed uint64, samples int) montecarlo.Request {
	raw, _ := json.Marshal(testParams{Scale: scale})
	return montecarlo.Request{Kernel: "cachetest/scaled", Params: raw, Seed: seed, Samples: samples, Dim: 2}
}

func mustEstimate(t *testing.T, e montecarlo.Executor, req montecarlo.Request) []montecarlo.Accumulator {
	t.Helper()
	accs, err := e.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return accs
}

func sameAccs(a, b []montecarlo.Accumulator) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		// Accumulator is comparable; State() captures the exact bits.
		if a[i].State() != b[i].State() {
			return false
		}
	}
	return true
}

func TestHitIsBitIdenticalToFreshRun(t *testing.T) {
	inner := &countingExecutor{inner: montecarlo.Local{}}
	e := New(inner, Options{})
	req := testReq(2.5, 11, 3*montecarlo.ShardSize+77)

	fresh, err := montecarlo.RunRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	first := mustEstimate(t, e, req)
	second := mustEstimate(t, e, req)
	if !sameAccs(first, fresh) {
		t.Error("miss result differs from a direct run")
	}
	if !sameAccs(second, fresh) {
		t.Error("hit result not bit-identical to a fresh run")
	}
	if got := inner.calls.Load(); got != 1 {
		t.Errorf("inner executor called %d times, want 1", got)
	}
	st := e.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 1 hit / 1 miss / 1 entry", st)
	}
}

func TestDifferentRequestsMiss(t *testing.T) {
	inner := &countingExecutor{inner: montecarlo.Local{}}
	e := New(inner, Options{})
	base := testReq(1, 5, montecarlo.ShardSize)
	mustEstimate(t, e, base)

	variants := []montecarlo.Request{
		testReq(1, 6, montecarlo.ShardSize),     // different seed
		testReq(3, 5, montecarlo.ShardSize),     // different params
		testReq(1, 5, montecarlo.ShardSize+100), // different samples
	}
	for _, req := range variants {
		mustEstimate(t, e, req)
	}
	if got, want := inner.calls.Load(), int64(1+len(variants)); got != want {
		t.Errorf("inner executor called %d times, want %d (every variant is a miss)", got, want)
	}
	// And all four still hit afterwards.
	mustEstimate(t, e, base)
	for _, req := range variants {
		mustEstimate(t, e, req)
	}
	if got, want := inner.calls.Load(), int64(1+len(variants)); got != want {
		t.Errorf("repeats re-evaluated: %d inner calls, want %d", got, want)
	}
}

func TestLRUEvictionBound(t *testing.T) {
	inner := &countingExecutor{inner: montecarlo.Local{}}
	e := New(inner, Options{MaxEntries: 2})
	a := testReq(1, 1, 100)
	b := testReq(1, 2, 100)
	c := testReq(1, 3, 100)
	mustEstimate(t, e, a)
	mustEstimate(t, e, b)
	mustEstimate(t, e, c) // evicts a (least recently used)
	if st := e.Stats(); st.Entries != 2 || st.Evictions != 1 {
		t.Errorf("stats after 3 inserts with bound 2: %+v", st)
	}
	mustEstimate(t, e, c) // hit
	mustEstimate(t, e, b) // hit
	if got := inner.calls.Load(); got != 3 {
		t.Errorf("inner calls = %d, want 3 (b and c cached)", got)
	}
	mustEstimate(t, e, a) // evicted: miss again
	if got := inner.calls.Load(); got != 4 {
		t.Errorf("inner calls = %d, want 4 (a was evicted)", got)
	}
	if st := e.Stats(); st.Entries > 2 {
		t.Errorf("entry count %d exceeds bound 2", st.Entries)
	}
}

func TestComposesWithDistRemote(t *testing.T) {
	var served atomic.Int64
	srv := httptest.NewServer(countingHandler(&served))
	defer srv.Close()
	remote, err := dist.NewRemote([]string{strings.TrimPrefix(srv.URL, "http://")})
	if err != nil {
		t.Fatal(err)
	}
	e := New(remote, Options{})
	req := testReq(0.5, 21, 2*montecarlo.ShardSize+9)

	local, err := montecarlo.RunRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	first := mustEstimate(t, e, req)
	if !sameAccs(first, local) {
		t.Error("cache-over-remote result differs from local")
	}
	afterFirst := served.Load()
	if afterFirst == 0 {
		t.Fatal("remote worker served no requests on the miss")
	}
	second := mustEstimate(t, e, req)
	if !sameAccs(second, local) {
		t.Error("cached remote result not bit-identical to local")
	}
	if got := served.Load(); got != afterFirst {
		t.Errorf("hit reached the worker fleet: %d requests, want %d", got, afterFirst)
	}
}

// countingHandler wraps a dist worker server, counting every request
// that reaches it.
func countingHandler(served *atomic.Int64) http.Handler {
	inner := dist.NewServer()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		served.Add(1)
		inner.ServeHTTP(w, r)
	})
}

func TestDiskPersistenceAcrossExecutors(t *testing.T) {
	dir := t.TempDir()
	req := testReq(4, 31, montecarlo.ShardSize+5)

	inner1 := &countingExecutor{inner: montecarlo.Local{}}
	e1 := New(inner1, Options{Dir: dir})
	first := mustEstimate(t, e1, req)
	if st := e1.Stats(); st.WriteFails != 0 {
		t.Fatalf("disk writes failed: %+v", st)
	}

	// A brand-new executor over the same directory: served from disk,
	// inner never called.
	inner2 := &countingExecutor{inner: montecarlo.Local{}}
	e2 := New(inner2, Options{Dir: dir})
	second := mustEstimate(t, e2, req)
	if !sameAccs(second, first) {
		t.Error("disk hit not bit-identical to the original result")
	}
	if got := inner2.calls.Load(); got != 0 {
		t.Errorf("inner called %d times despite disk entry", got)
	}
	if st := e2.Stats(); st.DiskHits != 1 {
		t.Errorf("stats = %+v, want 1 disk hit", st)
	}

	// Unrelated JSON in the same directory is neither counted nor
	// cleared: stats/clear touch only cache-owned <hexkey>.json files.
	foreign := filepath.Join(dir, "result.json")
	if err := os.WriteFile(foreign, []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	ds, err := StatDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Entries != 1 || ds.Bytes <= 0 {
		t.Errorf("dir stats = %+v, want 1 entry with nonzero size", ds)
	}
	removed, err := ClearDir(dir)
	if err != nil || removed != 1 {
		t.Errorf("ClearDir = (%d, %v), want (1, nil)", removed, err)
	}
	ds, _ = StatDir(dir)
	if ds.Entries != 0 {
		t.Errorf("entries after clear = %d", ds.Entries)
	}
	if _, err := os.Stat(foreign); err != nil {
		t.Errorf("ClearDir removed an unrelated JSON file: %v", err)
	}
}

func TestStatDirMissingIsEmpty(t *testing.T) {
	ds, err := StatDir("/definitely/not/a/real/dir")
	if err != nil || ds.Entries != 0 {
		t.Errorf("missing dir: %+v, %v", ds, err)
	}
}

func TestInvalidRequestRejected(t *testing.T) {
	e := New(nil, Options{})
	if _, err := e.EstimateVec(context.Background(), montecarlo.Request{}); err == nil {
		t.Error("invalid request accepted")
	}
}
