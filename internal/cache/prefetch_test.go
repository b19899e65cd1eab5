package cache

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"carriersense/internal/montecarlo"
)

func TestPrefetchMakesTheRunAllHits(t *testing.T) {
	dir := t.TempDir()
	warm := New(montecarlo.Local{}, Options{Dir: dir})
	cached := testReq(1, 11, montecarlo.ShardSize)
	want := mustEstimate(t, warm, cached)

	// Plan a run: one hit, two distinct misses, one duplicated miss.
	missA := testReq(2, 12, montecarlo.ShardSize)
	missB := testReq(3, 13, 2*montecarlo.ShardSize)
	p := NewPlanner(dir)
	for _, req := range []montecarlo.Request{cached, missA, missB, missA} {
		mustEstimate(t, p, req)
	}
	misses := p.Misses()
	if len(misses) != 3 {
		t.Fatalf("planner recorded %d misses, want 3 (duplicates included)", len(misses))
	}

	counting := &countingExecutor{inner: montecarlo.Local{}}
	exec := New(counting, Options{Dir: dir})
	rep, err := Prefetch(context.Background(), exec, misses)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Planned != 2 || rep.Fetched != 2 || rep.Failed != 0 {
		t.Fatalf("report = %+v, want 2 planned / 2 fetched (duplicate fetched once)", rep)
	}
	if calls := counting.calls.Load(); calls != 2 {
		t.Fatalf("prefetch evaluated %d times, want 2", calls)
	}
	if rep.Samples != int64(missA.SampleSpan()+missB.SampleSpan()) {
		t.Errorf("report.Samples = %d, want %d", rep.Samples, missA.SampleSpan()+missB.SampleSpan())
	}
	for _, req := range misses {
		if _, err := os.Stat(filepath.Join(dir, Key(req)+".json")); err != nil {
			t.Errorf("prefetch did not persist %s: %v", Key(req), err)
		}
	}

	// The "real run" afterwards: all hits, no evaluations, the
	// prefetched bits are what a direct evaluation would have produced.
	run := New(counting, Options{Dir: dir})
	before := counting.calls.Load()
	if got := mustEstimate(t, run, cached); !sameAccs(got, want) {
		t.Error("pre-existing entry changed bits")
	}
	direct := mustEstimate(t, montecarlo.Local{}, missA)
	if got := mustEstimate(t, run, missA); !sameAccs(got, direct) {
		t.Error("prefetched entry differs from direct evaluation")
	}
	mustEstimate(t, run, missB)
	if calls := counting.calls.Load(); calls != before {
		t.Fatalf("post-prefetch run evaluated %d times, want 0", calls-before)
	}
	st := run.Stats()
	if st.DiskHits != 3 {
		t.Errorf("post-prefetch run had %d disk hits, want 3", st.DiskHits)
	}
}

func TestPrefetchSkipsEntriesFilledMeanwhile(t *testing.T) {
	dir := t.TempDir()
	req := testReq(4, 14, montecarlo.ShardSize)
	p := NewPlanner(dir)
	mustEstimate(t, p, req)

	// Someone else fills the entry between plan and prefetch.
	mustEstimate(t, New(montecarlo.Local{}, Options{Dir: dir}), req)

	counting := &countingExecutor{inner: montecarlo.Local{}}
	rep, err := Prefetch(context.Background(), New(counting, Options{Dir: dir}), p.Misses())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Planned != 1 || rep.Skipped != 1 || rep.Fetched != 0 {
		t.Fatalf("report = %+v, want 1 planned / 1 skipped / 0 fetched", rep)
	}
	if calls := counting.calls.Load(); calls != 0 {
		t.Fatalf("prefetch evaluated %d times for an already-filled entry", calls)
	}
}

func TestPrefetchSurvivesFailures(t *testing.T) {
	dir := t.TempDir()
	good := testReq(5, 15, montecarlo.ShardSize)
	bad := good
	bad.Kernel = "cachetest/no-such-kernel"
	rep, err := Prefetch(context.Background(), New(montecarlo.Local{}, Options{Dir: dir}), []montecarlo.Request{bad, good})
	if err == nil {
		t.Fatal("prefetch with a broken request reported no error")
	}
	if rep.Failed != 1 || rep.Fetched != 1 {
		t.Fatalf("report = %+v, want 1 failed / 1 fetched (pass continues past failures)", rep)
	}
}
