package sampling_test

// Cross-executor determinism for every sampler: a sampler-transformed
// estimation must produce bit-identical accumulators whether it runs
// on the in-process pool, on a `cs serve` worker fleet of any size, or
// through the result cache — the same contract PRs 1–3 pinned for
// plain sampling. External test package: it exercises the public
// surface the executors themselves use.

import (
	"context"
	"strings"
	"testing"

	"net/http/httptest"

	"carriersense/internal/cache"
	"carriersense/internal/core"
	"carriersense/internal/dist"
	"carriersense/internal/montecarlo"
	"carriersense/internal/sampling"
)

// averagesReq builds a real model-kernel request (the hot-path kernel
// every table and curve funnels through), exercising positions,
// shadowing, and the full fused draw order under each sampler.
func averagesReq(t *testing.T, sampler string, samples int) montecarlo.Request {
	t.Helper()
	req := core.AveragesRequest(core.Params{Alpha: 3, SigmaDB: 8, NoiseDB: core.DefaultNoiseDB},
		55, 40, 55, 17, samples)
	req.Sampler = sampler
	return req
}

func estimate(t *testing.T, e montecarlo.Executor, req montecarlo.Request) []montecarlo.Accumulator {
	t.Helper()
	accs, err := e.EstimateVec(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return accs
}

func assertSame(t *testing.T, label string, a, b []montecarlo.Accumulator) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d vs %d components", label, len(a), len(b))
	}
	for i := range a {
		if a[i].State() != b[i].State() {
			t.Errorf("%s: component %d differs: %+v vs %+v", label, i, a[i].State(), b[i].State())
		}
	}
}

func TestSamplersBitIdenticalAcrossExecutors(t *testing.T) {
	// Two workers, so the remote path actually splits the plan.
	srv1 := httptest.NewServer(dist.NewServer())
	defer srv1.Close()
	srv2 := httptest.NewServer(dist.NewServer())
	defer srv2.Close()
	hosts := []string{
		strings.TrimPrefix(srv1.URL, "http://"),
		strings.TrimPrefix(srv2.URL, "http://"),
	}

	for _, sampler := range []string{sampling.Plain, sampling.Stratified, sampling.Sobol} {
		req := averagesReq(t, sampler, 3*montecarlo.ShardSize+101)

		local, err := montecarlo.RunRequest(context.Background(), req)
		if err != nil {
			t.Fatal(err)
		}

		remote, err := dist.NewRemote(hosts)
		if err != nil {
			t.Fatal(err)
		}
		assertSame(t, sampler+": remote vs local", estimate(t, remote, req), local)

		cached := cache.New(nil, cache.Options{Dir: t.TempDir()})
		assertSame(t, sampler+": cache miss vs local", estimate(t, cached, req), local)
		assertSame(t, sampler+": cache hit vs local", estimate(t, cached, req), local)
		if st := cached.Stats(); st.Hits != 1 || st.Misses != 1 {
			t.Errorf("%s: cache stats %+v, want 1 hit / 1 miss", sampler, st)
		}
	}
}

func TestDriverBitIdenticalAcrossExecutors(t *testing.T) {
	// The full adaptive stack: convergence driver over local, remote,
	// and caching executors must agree bit for bit — the driver's
	// delta requests travel the wire and the cache key space intact.
	srv := httptest.NewServer(dist.NewServer())
	defer srv.Close()

	for _, sampler := range []string{sampling.Plain, sampling.Stratified, sampling.Sobol} {
		req := averagesReq(t, sampler, 6*montecarlo.ShardSize)
		opts := sampling.DriverOptions{RelErr: 0.01, MaxSamples: 6 * montecarlo.ShardSize}

		dLocal, err := sampling.NewDriver(nil, opts)
		if err != nil {
			t.Fatal(err)
		}
		local := estimate(t, dLocal, req)

		remote, err := dist.NewRemote([]string{strings.TrimPrefix(srv.URL, "http://")})
		if err != nil {
			t.Fatal(err)
		}
		dRemote, err := sampling.NewDriver(remote, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSame(t, sampler+": driven remote vs local", estimate(t, dRemote, req), local)

		dir := t.TempDir()
		dCache1, err := sampling.NewDriver(cache.New(nil, cache.Options{Dir: dir}), opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSame(t, sampler+": driven cache fill vs local", estimate(t, dCache1, req), local)

		// A second driven run over the same directory must replay the
		// identical round schedule and hit on every delta request.
		warm := cache.New(nil, cache.Options{Dir: dir})
		dCache2, err := sampling.NewDriver(warm, opts)
		if err != nil {
			t.Fatal(err)
		}
		assertSame(t, sampler+": driven cache replay vs local", estimate(t, dCache2, req), local)
		if st := warm.Stats(); st.Misses != 0 {
			t.Errorf("%s: replayed convergence run missed the cache %d times (rounds: %d)",
				sampler, st.Misses, dCache2.Reports()[0].Rounds)
		}

		if dLocal.Reports()[0] != dRemote.Reports()[0] || dLocal.Reports()[0] != dCache2.Reports()[0] {
			t.Errorf("%s: per-point reports differ across executors:\n local %+v\nremote %+v\n cache %+v",
				sampler, dLocal.Reports()[0], dRemote.Reports()[0], dCache2.Reports()[0])
		}
	}
}
