package montecarlo

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"carriersense/internal/rng"
)

// testSplitParams are the test split kernel's: its draw reads Scale,
// its evaluation Offset.
type testSplitParams struct {
	Scale  float64 `json:"scale"`
	Offset float64 `json:"offset"`
}

// testSplit is a split kernel with 2-float records and 2 components.
type testSplit testSplitParams

func (k testSplit) Draw(src *rng.Source, count int, rec []float64) {
	for i := 0; i < count; i++ {
		rec[2*i] = src.Float64() * k.Scale
		rec[2*i+1] = src.Normal(0, 1)
	}
}

func (k testSplit) Eval(rec []float64, count int, out []float64) {
	for i := 0; i < count; i++ {
		out[2*i] = rec[2*i] + k.Offset
		out[2*i+1] = rec[2*i+1]
	}
}

// splitStream is a sampled stream that draws each sample from a
// source split off the shard's.
type splitStream struct{ src *rng.Source }

func (s splitStream) Next() *rng.Source { return s.src.Split() }

// groupedSampler is a test sampler in blocks of 4 on splitStream.
type groupedSampler struct{}

func (groupedSampler) Group() int { return 4 }

func (groupedSampler) Stream(n int, src *rng.Source) SampleStream { return splitStream{src} }

func init() {
	RegisterSampler("test/grouped", groupedSampler{})
	RegisterSplitKernel("test/split", 2, 2, func(raw json.RawMessage) (SplitKernel, any, error) {
		var p testSplitParams
		err := json.Unmarshal(raw, &p)
		return testSplit(p), p.Scale, err
	})
	// The same integrand as one batch kernel, which the memo never
	// serves.
	RegisterKernel("test/split-reference", 2, func(raw json.RawMessage) (BatchEvalFunc, error) {
		var p testSplitParams
		if err := json.Unmarshal(raw, &p); err != nil {
			return nil, err
		}
		return BatchLoop(2, func(src *rng.Source, out []float64) {
			out[0] = float64(src.Float64()*p.Scale) + p.Offset
			out[1] = src.Normal(0, 1)
		}), nil
	})
}

// resetMemo empties the draw memo, for a test that needs to know what
// it holds. No request may run meanwhile.
func resetMemo() {
	memo.Lock()
	memo.entries, memo.spare, memo.held = nil, nil, 0
	memo.Unlock()
}

// splitRequest is a test/split request over a plan that ends in a
// partial shard, and the same request on the reference kernel.
func splitRequest(t *testing.T, seed uint64, sampler string) (split, ref Request) {
	t.Helper()
	raw, err := json.Marshal(testSplitParams{Scale: 3, Offset: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	split = Request{Kernel: "test/split", Params: raw, Seed: seed, Samples: 2*ShardSize + 700, Dim: 2, Sampler: sampler}
	ref = split
	ref.Kernel = "test/split-reference"
	return split, ref
}

// checkSame fails unless a request's accumulators equal the reference's.
func checkSame(t *testing.T, name string, got, want []Accumulator) {
	t.Helper()
	for j := range want {
		if got[j] != want[j] {
			t.Errorf("%s: component %d is %+v, the reference gives %+v", name, j, got[j].Estimate(), want[j].Estimate())
		}
	}
}

// runReq runs req in the local pool; on an error it fails the test
// and returns no accumulators.
func runReq(t *testing.T, req Request) []Accumulator {
	t.Helper()
	accs, err := RunRequest(context.Background(), req)
	if err != nil {
		t.Error(err)
		return make([]Accumulator, req.Dim)
	}
	return accs
}

// TestDrawMemoFullRunsUnmemoized fills the memo with pinned entries:
// a split shard then finds nothing to evict and is evaluated
// unmemoized, with the reference's accumulators, and stores nothing.
// Once the entries are unpinned, requests draw into the memo and then
// reuse the records.
func TestDrawMemoFullRunsUnmemoized(t *testing.T) {
	resetMemo()
	defer resetMemo()
	var pinned []*records
	for i := 0; i < memoGranules*batchChunk/ShardSize; i++ {
		r, _ := lookup(memoKey{kernel: "test/pin", index: i, n: ShardSize})
		if r == nil {
			t.Fatalf("pin %d: the memo took no entry", i)
		}
		pinned = append(pinned, r)
	}
	for _, sampler := range []string{"", "test/grouped"} {
		req, ref := splitRequest(t, 31, sampler)
		want := runReq(t, ref)
		reused := ReusedSamples()
		checkSame(t, sampler+" memo full", runReq(t, req), want)
		checkSame(t, sampler+" memo full, again", runReq(t, req), want)
		if got := ReusedSamples() - reused; got != 0 {
			t.Errorf("%s: %d samples reused with every entry pinned, want 0", sampler, got)
		}
	}
	for _, r := range pinned {
		unpin(r, true)
	}
	for _, sampler := range []string{"", "test/grouped"} {
		req, ref := splitRequest(t, 31, sampler)
		want := runReq(t, ref)
		reused := ReusedSamples()
		checkSame(t, sampler+" draw", runReq(t, req), want)
		checkSame(t, sampler+" reuse", runReq(t, req), want)
		if got := ReusedSamples() - reused; got != int64(req.Samples) {
			t.Errorf("%s: %d samples reused, want the second request's %d", sampler, got, req.Samples)
		}
	}
}

// TestDrawMemoEvictsLeastRecentlyUsed fills the memo and files new
// entries: each evicts the least recently used drawn, unpinned
// entries and takes their granules, the memo never holds more than
// memoGranules, and a pinned entry is never evicted.
func TestDrawMemoEvictsLeastRecentlyUsed(t *testing.T) {
	resetMemo()
	defer resetMemo()
	key := func(i, chunks int) memoKey { return memoKey{kernel: "test/evict", index: i, n: chunks * batchChunk} }
	full := ShardSize / batchChunk
	file := func(k memoKey) *records {
		t.Helper()
		r, hit := lookup(k)
		if r == nil || hit {
			t.Fatalf("entry %d: got %v, hit %v; want a new entry", k.index, r, hit)
		}
		if memo.held > memoGranules {
			t.Fatalf("entry %d: the memo holds %d granules, over its %d", k.index, memo.held, memoGranules)
		}
		return r
	}
	held := func() map[int]bool {
		out := map[int]bool{}
		for _, r := range memo.entries {
			out[r.key.index] = true
		}
		return out
	}
	// Entry 0 stays pinned and undrawn, as while a shard draws it;
	// entries 1 to 7 are drawn in order, and 1 is then read again.
	pinned := file(key(0, full))
	for i := 1; i < memoGranules/full; i++ {
		unpin(file(key(i, full)), true)
	}
	if r, hit := lookup(key(1, full)); !hit {
		t.Fatal("entry 1 is not a hit")
	} else {
		unpin(r, false)
	}
	// Least recently used first: 2, then 3 (whose 8 granules more than
	// cover 2 chunks, so 6 stay spare), then 4 for 8 granules.
	for _, step := range []struct{ index, chunks, evicted int }{{8, full, 2}, {9, 2, 3}, {10, full, 4}} {
		unpin(file(key(step.index, step.chunks)), true)
		if h := held(); h[step.evicted] || !h[0] || !h[1] {
			t.Fatalf("after entry %d: entries %v, want %d evicted and 0, 1 kept", step.index, h, step.evicted)
		}
	}
	if memo.held != memoGranules || len(memo.spare) != 6 {
		t.Errorf("the memo holds %d granules, %d spare; want %d, 6", memo.held, len(memo.spare), memoGranules)
	}
	// With every entry pinned, as by shards reading them, a new one
	// finds nothing to evict.
	for _, r := range memo.entries {
		if r != pinned {
			r.pins++
		}
	}
	before := len(memo.entries)
	if r, _ := lookup(key(11, full)); r != nil || len(memo.entries) != before {
		t.Errorf("with every entry pinned: got an entry (%v), %d entries of %d", r != nil, len(memo.entries), before)
	}
}

// TestDrawMemoConcurrentRequests runs split requests on several seeds
// from several goroutines at once, repeatedly, through RunRequest and
// EvaluateShards: together they want more granules than the memo
// holds, so they evict each other's records while others read them.
// Every result equals the reference. It runs in CI's race lane.
func TestDrawMemoConcurrentRequests(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		req, ref := splitRequest(t, uint64(41+g), []string{"", "test/grouped"}[g%2])
		wg.Add(1)
		go func() {
			defer wg.Done()
			want := runReq(t, ref)
			for i := 0; i < 4; i++ {
				checkSame(t, fmt.Sprintf("seed %d run %d", req.Seed, i), runReq(t, req), want)
				shards, err := EvaluateShards(req, []int{2, 0, 1})
				if err != nil {
					t.Error(err)
					return
				}
				var merged [2]Accumulator
				for _, s := range [][]Accumulator{shards[1], shards[2], shards[0]} {
					for j := range merged {
						merged[j].Merge(s[j])
					}
				}
				checkSame(t, fmt.Sprintf("seed %d worker %d", req.Seed, i), merged[:], want)
			}
		}()
	}
	wg.Wait()
}
