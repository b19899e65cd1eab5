package cache

import (
	"os"
	"path/filepath"
	"testing"
	"time"

	"carriersense/internal/montecarlo"
)

func TestKeyCoversSamplerAndShardRange(t *testing.T) {
	base := testReq(1, 5, 2*montecarlo.ShardSize)
	sampled := base
	sampled.Sampler = "sobol"
	ranged := base
	ranged.FirstShard = 1
	keys := map[string]string{
		"base":    Key(base),
		"sampled": Key(sampled),
		"ranged":  Key(ranged),
	}
	for a, ka := range keys {
		for b, kb := range keys {
			if a != b && ka == kb {
				t.Errorf("requests %s and %s share a cache key", a, b)
			}
		}
	}
}

func TestSamplerVariantsAreSeparateEntries(t *testing.T) {
	inner := &countingExecutor{inner: montecarlo.Local{}}
	e := New(inner, Options{})
	plain := testReq(1, 9, montecarlo.ShardSize)
	named := plain
	named.Sampler = "plain" // registered, distinct key from ""
	mustEstimate(t, e, plain)
	mustEstimate(t, e, named)
	if got := inner.calls.Load(); got != 2 {
		t.Errorf("sampler variant served from the wrong entry: %d inner calls, want 2", got)
	}
	// A hit under each identity returns that identity's bits.
	if !sameAccs(mustEstimate(t, e, plain), mustEstimate(t, e, named)) {
		// "" and "plain" are the same strategy, so the *values* agree
		// even though the entries are distinct.
		t.Error("plain and \"\" sampler results differ")
	}
	if got := inner.calls.Load(); got != 2 {
		t.Errorf("repeat lookups re-evaluated: %d inner calls, want 2", got)
	}
}

func TestDiskEvictionBound(t *testing.T) {
	dir := t.TempDir()
	// Measure one entry's on-disk size, then bound the directory to
	// roughly three entries and write six.
	probe := New(montecarlo.Local{}, Options{Dir: dir})
	mustEstimate(t, probe, testReq(1, 1, montecarlo.ShardSize))
	st, err := StatDir(dir)
	if err != nil || st.Entries != 1 {
		t.Fatalf("probe entry: %+v, %v", st, err)
	}
	entrySize := st.Bytes
	if _, err := ClearDir(dir); err != nil {
		t.Fatal(err)
	}

	e := New(montecarlo.Local{}, Options{Dir: dir, MaxBytes: 3*entrySize + entrySize/2})
	for seed := uint64(1); seed <= 6; seed++ {
		mustEstimate(t, e, testReq(1, seed, montecarlo.ShardSize))
		// Distinct mtimes so LRU order is unambiguous on coarse
		// filesystem clocks.
		time.Sleep(5 * time.Millisecond)
	}
	st, err = StatDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if st.Bytes > 3*entrySize+entrySize/2 {
		t.Errorf("disk layer over budget: %d bytes for a %d-byte bound", st.Bytes, 3*entrySize+entrySize/2)
	}
	if st.Entries == 0 || st.Entries > 3 {
		t.Errorf("disk layer holds %d entries, want 1-3 under a ~3-entry budget", st.Entries)
	}
	if ev := e.Stats().DiskEvictions; ev < 3 {
		t.Errorf("DiskEvictions = %d, want >= 3", ev)
	}
	// The survivors are the most recently written: the oldest seeds'
	// entries are gone.
	for seed := uint64(1); seed <= 6; seed++ {
		_, statErr := os.Stat(filepath.Join(dir, Key(testReq(1, seed, montecarlo.ShardSize))+".json"))
		exists := statErr == nil
		if seed <= 3 && exists {
			t.Errorf("old entry for seed %d survived eviction", seed)
		}
		if seed > 3 && !exists {
			t.Errorf("recent entry for seed %d was evicted", seed)
		}
	}
}

func TestDiskHitRefreshesRecency(t *testing.T) {
	dir := t.TempDir()
	e := New(montecarlo.Local{}, Options{Dir: dir})
	old := testReq(1, 1, montecarlo.ShardSize)
	mustEstimate(t, e, old)
	path := filepath.Join(dir, Key(old)+".json")
	stale := time.Now().Add(-time.Hour)
	if err := os.Chtimes(path, stale, stale); err != nil {
		t.Fatal(err)
	}
	// A disk hit from a fresh executor must bump the mtime so eviction
	// sees the entry as live.
	fresh := New(montecarlo.Local{}, Options{Dir: dir})
	mustEstimate(t, fresh, old)
	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !info.ModTime().After(stale.Add(time.Minute)) {
		t.Errorf("disk hit left mtime at %v; eviction would treat the entry as cold", info.ModTime())
	}
}
