package montecarlo

// The draw memo (see the package comment). A shard's records are a
// pure function of its memo key: the kernel, its draw key (the params
// the draw reads), the seed, the sampler, the shard index and the
// shard size (a stratified stream depends on the size). Eval is a pure
// function of a record and the params outside the draw key, and a
// shard evaluates stored records in sample order into the same fold
// as fresh ones, so a hit gives the accumulators a redraw would, for
// any request of the process that has the key.
//
// There is one memo per process, and the shard loop consults it for
// every split-kernel shard, from RunRequest and EvaluateShards alike.
// Records live in granules of one evaluation chunk each, and the memo
// holds at most memoGranules of them (1 MiB). An entry is pinned while
// a shard draws or reads it. A new entry that would pass the cap
// evicts the least recently used entries that are drawn and unpinned
// and takes their granules, with no sync.Pool round trip; when those
// are too few, the shard is evaluated unmemoized.

import "sync"

// maxRecLen is the largest record, in float64s, a split kernel may
// register: a granule holds one chunk of records of this length.
const maxRecLen = 4

// memoGranules bounds the granules the memo holds: 1 MiB. The three
// concurrent threshold searches of a bench-scale tables run want 60 at
// a fixed budget (20 each). Under -sampler auto -relerr 0.005 auto's
// three candidate pilots add 48 during the first search. Eviction
// drops the pilots no later step reads: at seeds 3, 4 and 6, 45 such
// runs at the default width on 2 vCPUs all reused as many samples as
// at -parallel 1, where a cap without eviction fell short in 11 of 45.
const memoGranules = 64

// granule holds the records of one evaluation chunk.
type granule [batchChunk * maxRecLen]float64

// granules lends the memo its granules and the shard loop its record
// scratch for shards the memo does not take.
var granules = sync.Pool{New: func() any { return new(granule) }}

// records are one shard's draw records: granule c holds chunk c's.
type records struct {
	key   memoKey
	g     [ShardSize / batchChunk]*granule
	ready bool   // every record is drawn
	pins  int    // shards drawing or reading the records
	used  uint64 // the memo's clock at the last lookup
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

// memo is the process's draw memo. held counts the granules of its
// entries and spare; spare holds what evictions freed beyond the new
// entry's need.
var memo struct {
	sync.Mutex
	entries []*records
	spare   []*granule
	held    int
	clock   uint64
}

// lookup returns the records of key k, pinned, and whether they are
// drawn. On a miss it files a pinned entry with a granule for every
// chunk of the shard, for the caller to draw. Either way the caller
// unpins the entry with unpin once the shard is evaluated. nil means
// evaluate unmemoized: another shard is drawing the same records, or
// the cap is reached and evicting every drawn, unpinned entry would
// not free enough granules.
func lookup(k memoKey) (rec *records, hit bool) {
	memo.Lock()
	defer memo.Unlock()
	memo.clock++
	for _, r := range memo.entries {
		if r.key == k {
			if !r.ready {
				return nil, false
			}
			r.pins++
			r.used = memo.clock
			return r, true
		}
	}
	need := (k.n + batchChunk - 1) / batchChunk
	if !reserve(need) {
		return nil, false
	}
	r := &records{key: k, pins: 1, used: memo.clock}
	for c := range need {
		if n := len(memo.spare); n > 0 {
			r.g[c], memo.spare = memo.spare[n-1], memo.spare[:n-1]
		} else {
			r.g[c] = granules.Get().(*granule)
			memo.held++
		}
	}
	memo.entries = append(memo.entries, r)
	return r, false
}

// reserve makes need granules available, in spare or under the cap,
// by evicting least recently used entries into spare; it evicts
// nothing and reports false when that cannot free enough.
func reserve(need int) bool {
	free := memoGranules - memo.held + len(memo.spare)
	if free >= need {
		return true
	}
	evictable := 0
	for _, r := range memo.entries {
		if r.ready && r.pins == 0 {
			evictable += (r.key.n + batchChunk - 1) / batchChunk
		}
	}
	if free+evictable < need {
		return false
	}
	for free < need {
		lru := -1
		for i, r := range memo.entries {
			if r.ready && r.pins == 0 && (lru < 0 || r.used < memo.entries[lru].used) {
				lru = i
			}
		}
		r := memo.entries[lru]
		last := len(memo.entries) - 1
		memo.entries[lru], memo.entries[last] = memo.entries[last], nil
		memo.entries = memo.entries[:last]
		for _, g := range r.g {
			if g != nil {
				memo.spare = append(memo.spare, g)
				free++
			}
		}
	}
	return true
}

// unpin ends a shard's use of records; drew marks them drawn, so later
// lookups hit them.
func unpin(r *records, drew bool) {
	memo.Lock()
	r.pins--
	r.ready = r.ready || drew
	memo.Unlock()
}
