package testbed

// Determinism suite for the testbed sim kernel: the §4 experiment must
// produce byte-identical results serial vs parallel, through the
// result cache, and over a distributed worker fleet — the same
// contract the Monte Carlo kernels have carried since PR 2, now
// extended to packet-level replications.

import (
	"context"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"

	"carriersense/internal/cache"
	"carriersense/internal/dist"
	"carriersense/internal/montecarlo"
	"carriersense/internal/rng"
	"carriersense/internal/sim"
)

// kernelExperiment is a small but non-trivial experiment: several
// combos, two rates, fading on.
func kernelExperiment() (*Testbed, ExperimentParams) {
	tb := Generate(DefaultLayout(), 42)
	p := DefaultExperiment()
	p.Duration = 100 * sim.Millisecond
	p.MaxCombos = 5
	p.Rates = p.Rates[:2]
	return tb, p
}

func TestComboKernelRegistered(t *testing.T) {
	for _, name := range montecarlo.KernelNames() {
		if name == KernelCombo {
			return
		}
	}
	t.Fatalf("kernel %q not registered", KernelCombo)
}

// TestExperimentSerialVsParallelBitIdentity pins the fan-out: any
// worker pool width assembles the identical experiment.
func TestExperimentSerialVsParallelBitIdentity(t *testing.T) {
	tb, p := kernelExperiment()
	run := func(workers int) ExperimentResult {
		if err := montecarlo.SetMaxWorkers(workers); err != nil {
			t.Fatal(err)
		}
		defer montecarlo.ResetMaxWorkers()
		return RunExperiment(context.Background(), tb, p, ShortRange)
	}
	serial := run(1)
	if len(serial.Combos) == 0 {
		t.Fatal("no combos measured")
	}
	for _, workers := range []int{2, 7} {
		if got := run(workers); !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d result differs from serial", workers)
		}
	}
}

// TestExperimentExecutorVsDirectBitIdentity pins the kernel seam
// itself: the executor-routed path must reproduce the direct
// runCombo-loop path bit for bit (the fallback testbeds without a
// recorded seed take).
func TestExperimentExecutorVsDirectBitIdentity(t *testing.T) {
	tb, p := kernelExperiment()
	routed := RunExperiment(context.Background(), tb, p, LongRange)

	// Replay the selection plan by hand and run each combo directly.
	direct := func() ExperimentResult {
		src := rng.New(p.Seed)
		links := tb.QualifyingLinks(LongRange)
		src.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
		combos := selectCombos(links, p.MaxCombos, src)
		res := ExperimentResult{Class: LongRange}
		for _, c := range combos {
			res.Combos = append(res.Combos, runCombo(tb, p, c[0], c[1], src.Uint64()))
		}
		return res
	}()
	if !reflect.DeepEqual(routed, direct) {
		t.Fatal("executor-routed experiment differs from the direct path")
	}
}

// TestExperimentCacheBitIdentity runs the experiment against a caching
// executor twice: the second pass must be all hits and byte-identical.
func TestExperimentCacheBitIdentity(t *testing.T) {
	tb, p := kernelExperiment()
	c := cache.New(nil, cache.Options{Dir: t.TempDir()})
	ctx := montecarlo.WithPlan(context.Background(), c, "")
	first := RunExperiment(ctx, tb, p, ShortRange)
	misses := c.Stats().Misses
	if misses == 0 {
		t.Fatal("first run hit an empty cache")
	}
	second := RunExperiment(ctx, tb, p, ShortRange)
	if !reflect.DeepEqual(first, second) {
		t.Fatal("cached experiment differs from evaluated one")
	}
	st := c.Stats()
	if st.Misses != misses {
		t.Fatalf("second run missed: %d -> %d misses", misses, st.Misses)
	}
	if st.Hits == 0 {
		t.Fatal("second run recorded no hits")
	}
}

// TestExperimentRemoteBitIdentity runs the experiment over two real
// worker servers and compares with the local run.
func TestExperimentRemoteBitIdentity(t *testing.T) {
	tb, p := kernelExperiment()
	local := RunExperiment(context.Background(), tb, p, ShortRange)

	hosts := make([]string, 2)
	for i := range hosts {
		srv := httptest.NewServer(dist.NewServer())
		defer srv.Close()
		hosts[i] = strings.TrimPrefix(srv.URL, "http://")
	}
	remote, err := dist.NewRemote(hosts)
	if err != nil {
		t.Fatal(err)
	}
	distributed := RunExperiment(montecarlo.WithPlan(context.Background(), remote, ""), tb, p, ShortRange)
	if !reflect.DeepEqual(local, distributed) {
		t.Fatal("distributed experiment differs from local")
	}
}

// TestComboWireExcludesSelectionKnobs pins the cache-identity choice:
// the same combo measured under a larger MaxCombos budget (or a
// different selection seed) reuses the same replication entries.
func TestComboWireExcludesSelectionKnobs(t *testing.T) {
	tb, p := kernelExperiment()
	l1 := Link{Src: 1, Dst: 2}
	l2 := Link{Src: 3, Dst: 4}
	a := comboRequest(tb, p, l1, l2, 99)
	p2 := p
	p2.MaxCombos = p.MaxCombos + 25
	p2.Seed = p.Seed + 1
	b := comboRequest(tb, p2, l1, l2, 99)
	if cache.Key(a) != cache.Key(b) {
		t.Fatal("MaxCombos/selection seed leaked into the replication identity")
	}
	p3 := p
	p3.EnergyOnlyCCA = !p.EnergyOnlyCCA
	c := comboRequest(tb, p3, l1, l2, 99)
	if cache.Key(a) == cache.Key(c) {
		t.Fatal("CCA flavor did not change the replication identity")
	}
}
