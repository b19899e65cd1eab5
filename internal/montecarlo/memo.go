package montecarlo

// Draw memos (see the package comment). A shard's records are a pure
// function of its memo key: the kernel, its draw key (the params the
// draw reads), the seed, the sampler, the shard index and the shard
// size (a stratified stream depends on the size). Eval is a pure
// function of a record and the params outside the draw key, and a
// shard evaluates stored records in sample order into the same fold
// as fresh ones, so a hit gives the accumulators a redraw would.
//
// Records live in granules of one evaluation chunk each. Scopes hold
// at most memoGranules of them (1 MiB) at once; a shard that cannot get
// a granule for every chunk it has is evaluated unmemoized. Released
// granules go back to the sync.Pool that also lends the shard loop its
// record scratch, so a steady run of searches reuses them and an idle
// process lets the collector take them.

import (
	"context"
	"sync"
)

// maxRecLen is the largest record, in float64s, a split kernel may
// register: a granule holds one chunk of records of this length.
const maxRecLen = 4

// memoGranules bounds the granules scopes hold at once: 1 MiB. The
// three concurrent threshold searches of a bench-scale tables run want
// 60 at a fixed budget (20 each). Under -sampler auto -relerr 0.005
// they want 50 to 78, since auto's three candidate pilots hold 48
// through the first search, so the cap fills at some seeds and a few
// shards are redrawn; on that workload a cap of 96, or pilots kept
// out of the scopes, measured no faster (2 vCPUs).
const memoGranules = 64

// granule holds the records of one evaluation chunk.
type granule [batchChunk * maxRecLen]float64

// granules lends record granules to scopes and to the shard loop.
var granules = sync.Pool{New: func() any { return new(granule) }}

// records are one shard's draw records: granule c holds chunk c's.
// ready is set, under memoMu, once the shard that took them has
// written them all.
type records struct {
	key   memoKey
	g     [ShardSize / batchChunk]*granule
	ready bool
}

// memoKey identifies one shard's records.
type memoKey struct {
	kernel  string
	draw    any // the split kernel's draw key
	seed    uint64
	sampler string
	index   int
	n       int
}

// drawMemo is one scope's records, a handful per search.
type drawMemo struct {
	entries  []*records
	released bool
}

var (
	// memoMu guards every scope's entries and memoHeld.
	memoMu sync.Mutex
	// memoHeld counts the granules open scopes hold.
	memoHeld int
)

type memoCtxKey struct{}

// WithDrawMemo opens a draw-memo scope: split kernels that RunRequest
// evaluates under the returned context draw each shard once, and later
// requests for the same shard reuse its records. release returns the
// scope's records to the pool; call it once every request of the scope
// has returned (a request after release evaluates unmemoized).
// Requests that reach other executors (a worker fleet, a cache hit)
// are unaffected.
func WithDrawMemo(ctx context.Context) (_ context.Context, release func()) {
	m := &drawMemo{}
	return context.WithValue(ctx, memoCtxKey{}, m), m.release
}

func memoOf(ctx context.Context) *drawMemo {
	m, _ := ctx.Value(memoCtxKey{}).(*drawMemo)
	return m
}

// memoRequest is one request's handle on its scope's memo: the memo
// and the request's key, whose shard fields each lookup fills in.
type memoRequest struct {
	m   *drawMemo
	key memoKey
}

// lookup returns shard s's records for the request, and whether they
// are drawn. On a miss it takes granules for every chunk of the
// shard and files them undrawn, for the caller to draw and then
// publish. nil means evaluate unmemoized: no scope (a nil request), a
// released one, the hold cap reached, or another shard still drawing
// the same records.
func (mr *memoRequest) lookup(s Shard) (rec *records, hit bool) {
	if mr == nil {
		return nil, false
	}
	m, k := mr.m, mr.key
	k.index, k.n = s.Index, s.N
	memoMu.Lock()
	defer memoMu.Unlock()
	if m.released {
		return nil, false
	}
	for _, r := range m.entries {
		if r.key == k {
			if r.ready {
				return r, true
			}
			return nil, false
		}
	}
	need := (k.n + batchChunk - 1) / batchChunk
	if memoHeld+need > memoGranules {
		return nil, false
	}
	memoHeld += need
	r := &records{key: k}
	for c := range need {
		r.g[c] = granules.Get().(*granule)
	}
	m.entries = append(m.entries, r)
	return r, false
}

// publish marks records drawn, so later lookups hit them.
func publish(r *records) {
	memoMu.Lock()
	r.ready = true
	memoMu.Unlock()
}

// release returns the scope's granules to the pool.
func (m *drawMemo) release() {
	memoMu.Lock()
	defer memoMu.Unlock()
	for _, r := range m.entries {
		for _, g := range r.g {
			if g != nil {
				granules.Put(g)
				memoHeld--
			}
		}
	}
	m.entries, m.released = nil, true
}
