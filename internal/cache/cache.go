// Package cache provides a caching montecarlo.Executor: estimation
// results keyed by the full identity of the request — (kernel, params
// JSON, seed, samples, dim) — and served as bit-exact stored
// accumulator states on repeat. It wraps any inner executor (the
// in-process pool or a dist.Remote worker fleet), so `cs all`
// re-running the catalog and repeated CLI runs stop re-evaluating
// Monte Carlo work they already have.
//
// Correctness: the merge currency is montecarlo.AccumulatorState —
// IEEE-754 bit patterns — so a cache hit reproduces the inner
// executor's result exactly, bit for bit. The key covers every input
// that determines the result (the shard plan is a pure function of
// seed and samples; the integrand is a pure function of kernel name
// and params JSON), so a hit can never serve stale or mismatched
// estimates. Params JSON comes from deterministic struct marshaling,
// giving byte-stable keys per call site.
//
// The in-memory layer is a bounded LRU. An optional directory adds a
// persistent second layer (one JSON file per entry, written
// atomically) so results survive across processes — this is what
// makes a second `cs all -cache` run mostly free.
package cache

import (
	"bytes"
	"container/list"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"carriersense/internal/fault"
	"carriersense/internal/montecarlo"
)

// DefaultMaxEntries bounds the in-memory LRU when Options.MaxEntries
// is zero. An entry is dim accumulator states (~dozens of bytes each),
// so the default is a few hundred KB at most.
const DefaultMaxEntries = 1024

// Options configure a caching executor. The zero value selects an
// in-memory-only cache with the default LRU bound.
type Options struct {
	// MaxEntries bounds the in-memory LRU; 0 means DefaultMaxEntries.
	MaxEntries int
	// Dir, when non-empty, persists entries as JSON files under this
	// directory and consults it on in-memory misses. The directory is
	// created on first write.
	Dir string
	// MaxBytes, when > 0, bounds the persistent layer: after each disk
	// write the directory's cache entries are LRU-evicted (by mtime —
	// disk hits refresh it) until the total size fits. 0 leaves the
	// disk layer unbounded (`cs cache clear` empties it).
	MaxBytes int64
}

// Stats is a snapshot of cache effectiveness counters.
type Stats struct {
	Hits          int64 // served from memory
	DiskHits      int64 // served from the persistent layer
	Misses        int64 // evaluated by the inner executor
	Evictions     int64 // in-memory LRU evictions
	DiskEvictions int64 // persistent-layer LRU evictions (MaxBytes bound)
	WriteFails    int64 // best-effort disk writes that failed
	Corrupt       int64 // disk entries that failed integrity checks (quarantined)
	Entries       int   // current in-memory entry count
}

// Executor is a caching montecarlo.Executor. Safe for concurrent use;
// concurrent misses on the same key may each evaluate (the results are
// bit-identical, so the duplicate store is harmless).
type Executor struct {
	inner    montecarlo.Executor
	max      int
	dir      string
	maxBytes int64

	mu      sync.Mutex
	entries map[string]*list.Element
	lru     *list.List // front = most recently used
	stats   Stats
	// diskBytes is the running size of the persistent layer, seeded by
	// one directory scan on the first write and maintained per write
	// thereafter, so the MaxBytes bound is enforced without re-scanning
	// the directory on every estimation (an eviction pass re-syncs it).
	// Best-effort under concurrent executors sharing a directory; an
	// overshoot is corrected at the next eviction pass.
	diskBytes   int64
	diskScanned bool
}

// entry is one cached result.
type entry struct {
	key    string
	states []montecarlo.AccumulatorState
}

// New builds a caching executor around inner. A nil inner uses
// montecarlo.Local.
func New(inner montecarlo.Executor, opts Options) *Executor {
	if inner == nil {
		inner = montecarlo.Local{}
	}
	max := opts.MaxEntries
	if max <= 0 {
		max = DefaultMaxEntries
	}
	return &Executor{
		inner:    inner,
		max:      max,
		dir:      opts.Dir,
		maxBytes: opts.MaxBytes,
		entries:  map[string]*list.Element{},
		lru:      list.New(),
	}
}

// KeyEpoch versions the cache key space. The request fields cover
// every *runtime* input of an estimation, but the kernel numerics are
// compiled in: a code change that alters what a kernel computes (a
// different shadowing formula, a reordered draw, a new path-gain
// specialization) would otherwise let a new binary serve a previous
// binary's persisted bit patterns. Bump this constant with any such
// change; old persistent entries then miss cleanly instead of lying.
//
// Epoch 2: the key gained the request's sampler name and shard range
// (the adaptive sampling subsystem), so epoch-1 entries — which could
// otherwise collide with a plain full-range request's key — miss.
//
// Epoch 3: packet-simulator replications joined the key space as
// testbed/* sim kernels, and the PHY hot-path overhaul moved the
// simulator's power arithmetic to precomputed linear-scale gains
// (math.Exp instead of per-query math.Pow) — last-ulp differences
// that would let a new binary serve a previous binary's bit patterns
// as its own. Entries from earlier epochs miss cleanly.
//
// Epoch 4: the variance-reduction engine — requests gained the
// control-variate adjustment (Request.Control joins the key), and the
// sampler vocabulary gained sobol/halton/cv, whose block randomization
// draws reshape the shard streams. Entries from earlier epochs miss
// cleanly. Retiring cv later did not move the epoch: a key held the
// control spec only when one was set, so every surviving request
// hashes the bytes it hashed before.
const KeyEpoch = 4

// Key returns the cache key of a request: a SHA-256 over KeyEpoch and
// every request field that determines the estimation result — the
// sampler transforms the draws and the shard range selects the plan
// slice, so both are part of the result's identity.
func Key(req montecarlo.Request) string {
	h := sha256.New()
	fmt.Fprintf(h, "epoch%d", KeyEpoch)
	h.Write([]byte{0})
	h.Write([]byte(req.Kernel))
	h.Write([]byte{0})
	h.Write(req.Params)
	h.Write([]byte{0})
	h.Write([]byte(req.Sampler))
	// Two separators: epoch-4 keys held the retired control-variate
	// spec between them, and hashed nothing there without one.
	h.Write([]byte{0, 0})
	var tail [32]byte
	binary.LittleEndian.PutUint64(tail[0:], req.Seed)
	binary.LittleEndian.PutUint64(tail[8:], uint64(req.Samples))
	binary.LittleEndian.PutUint64(tail[16:], uint64(req.Dim))
	binary.LittleEndian.PutUint64(tail[24:], uint64(req.FirstShard))
	h.Write(tail[:])
	return hex.EncodeToString(h.Sum(nil))
}

// EstimateVec implements montecarlo.Executor: memory, then disk, then
// the inner executor, storing fresh results in both layers.
func (e *Executor) EstimateVec(ctx context.Context, req montecarlo.Request) ([]montecarlo.Accumulator, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	key := Key(req)
	lookupStart := time.Now()
	if states, ok := e.lookup(key); ok {
		mLookupSeconds.Observe(time.Since(lookupStart).Seconds())
		return fromStates(states), nil
	}
	if states, ok := e.loadDisk(key, req); ok {
		mLookupSeconds.Observe(time.Since(lookupStart).Seconds())
		e.mu.Lock()
		e.stats.DiskHits++
		e.mu.Unlock()
		e.store(key, states)
		return fromStates(states), nil
	}
	mLookupSeconds.Observe(time.Since(lookupStart).Seconds())
	accs, err := e.inner.EstimateVec(ctx, req)
	if err != nil {
		return nil, err
	}
	if len(accs) != req.Dim {
		return nil, fmt.Errorf("cache: inner executor returned %d components, want %d", len(accs), req.Dim)
	}
	e.mu.Lock()
	e.stats.Misses++
	e.mu.Unlock()
	states := toStates(accs)
	e.store(key, states)
	e.saveDisk(key, req, states)
	return accs, nil
}

// lookup serves an in-memory hit and refreshes its LRU position.
func (e *Executor) lookup(key string) ([]montecarlo.AccumulatorState, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	el, ok := e.entries[key]
	if !ok {
		return nil, false
	}
	e.lru.MoveToFront(el)
	e.stats.Hits++
	return el.Value.(*entry).states, true
}

// store inserts (or refreshes) an entry and enforces the LRU bound.
func (e *Executor) store(key string, states []montecarlo.AccumulatorState) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if el, ok := e.entries[key]; ok {
		e.lru.MoveToFront(el)
		el.Value.(*entry).states = states
		return
	}
	e.entries[key] = e.lru.PushFront(&entry{key: key, states: states})
	for e.lru.Len() > e.max {
		back := e.lru.Back()
		e.lru.Remove(back)
		delete(e.entries, back.Value.(*entry).key)
		e.stats.Evictions++
	}
}

// Stats returns a snapshot of the cache counters.
func (e *Executor) Stats() Stats {
	e.mu.Lock()
	defer e.mu.Unlock()
	s := e.stats
	s.Entries = e.lru.Len()
	return s
}

func toStates(accs []montecarlo.Accumulator) []montecarlo.AccumulatorState {
	states := make([]montecarlo.AccumulatorState, len(accs))
	for i, a := range accs {
		states[i] = a.State()
	}
	return states
}

func fromStates(states []montecarlo.AccumulatorState) []montecarlo.Accumulator {
	accs := make([]montecarlo.Accumulator, len(states))
	for i, st := range states {
		accs[i] = montecarlo.FromState(st)
	}
	return accs
}

// diskEntry is the persistent form of one cached result. The request
// fields are stored alongside the states and verified on load, so a
// hash collision or a truncated/foreign file degrades to a miss, never
// to a wrong answer.
type diskEntry struct {
	Kernel     string                        `json:"kernel"`
	Params     json.RawMessage               `json:"params,omitempty"`
	Seed       uint64                        `json:"seed"`
	Samples    int                           `json:"samples"`
	Dim        int                           `json:"dim"`
	Sampler    string                        `json:"sampler,omitempty"`
	FirstShard int                           `json:"first_shard,omitempty"`
	States     []montecarlo.AccumulatorState `json:"states"`
}

func (e *Executor) diskPath(key string) string {
	return filepath.Join(e.dir, key+".json")
}

// Disk-entry integrity. Every entry starts with one header line —
//
//	CSC1 <crc32c hex8> <payload length>\n
//
// followed by the JSON payload and a trailing newline. The checksum
// (CRC-32 Castagnoli over the payload) is verified on every load:
// cache entries are IEEE-754 bit patterns served *as results*, so a
// flipped bit on disk that still parsed as JSON would corrupt an
// estimation silently. A failed check reads as a miss, never a wrong
// answer, and the damaged file is quarantined out of the entry
// namespace for postmortems instead of being re-served forever.
const (
	entryMagic = "CSC1"
	// QuarantineDir is the sidecar directory (under the cache dir)
	// that corrupt entries are moved to. As a subdirectory it is
	// invisible to isEntryName-based scans (StatDir, EvictDir,
	// ClearDir), so quarantined files never count against the disk
	// budget or get re-read as entries.
	QuarantineDir = "quarantine"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// sealEntry frames a payload in the checksummed on-disk format.
func sealEntry(payload []byte) []byte {
	header := fmt.Sprintf("%s %08x %d\n", entryMagic, crc32.Checksum(payload, crcTable), len(payload))
	out := make([]byte, 0, len(header)+len(payload)+1)
	out = append(out, header...)
	out = append(out, payload...)
	return append(out, '\n')
}

// openEntry verifies an entry file's header and checksum and returns
// the JSON payload. Any structural damage — missing or malformed
// header, a length that disagrees with the file, a checksum mismatch
// — is an error the caller must treat as corruption. A bare-JSON
// file without a header is damage too: keys of the current KeyEpoch
// were only ever written sealed.
func openEntry(data []byte) ([]byte, error) {
	nl := bytes.IndexByte(data, '\n')
	if nl < 0 {
		return nil, errors.New("cache: entry missing header line")
	}
	fields := strings.Fields(string(data[:nl]))
	if len(fields) != 3 || fields[0] != entryMagic {
		return nil, fmt.Errorf("cache: bad entry header %q", string(data[:nl]))
	}
	wantCRC, err := strconv.ParseUint(fields[1], 16, 32)
	if err != nil {
		return nil, fmt.Errorf("cache: bad entry checksum %q", fields[1])
	}
	wantLen, err := strconv.Atoi(fields[2])
	if err != nil || wantLen < 0 {
		return nil, fmt.Errorf("cache: bad entry length %q", fields[2])
	}
	rest := data[nl+1:]
	if len(rest) != wantLen+1 || rest[wantLen] != '\n' {
		return nil, fmt.Errorf("cache: entry payload is %d bytes, header says %d", len(rest)-1, wantLen)
	}
	payload := rest[:wantLen]
	if got := crc32.Checksum(payload, crcTable); got != uint32(wantCRC) {
		return nil, fmt.Errorf("cache: entry checksum %08x, header says %08x", got, uint32(wantCRC))
	}
	return payload, nil
}

// quarantine moves a corrupt entry into the sidecar directory (or
// removes it if the move fails) and counts the corruption. Racing
// loaders both try; only the one that actually displaces the file
// counts it.
func (e *Executor) quarantine(key string) {
	qdir := filepath.Join(e.dir, QuarantineDir)
	displaced := false
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		displaced = os.Rename(e.diskPath(key), filepath.Join(qdir, key+".json")) == nil
	}
	if !displaced {
		displaced = os.Remove(e.diskPath(key)) == nil
	}
	if !displaced {
		return
	}
	e.mu.Lock()
	e.stats.Corrupt++
	e.mu.Unlock()
	mCorrupt.Inc()
}

// loadDisk consults the persistent layer. A structurally damaged
// entry is quarantined and reads as a miss; a healthy entry whose
// request fields mismatch (hash collision, foreign file) is a plain
// miss.
func (e *Executor) loadDisk(key string, req montecarlo.Request) ([]montecarlo.AccumulatorState, bool) {
	if e.dir == "" {
		return nil, false
	}
	data, err := os.ReadFile(e.diskPath(key))
	if err != nil {
		return nil, false
	}
	if f := fault.Current(); f != nil {
		data = f.MangleCacheLoad(data)
	}
	payload, perr := openEntry(data)
	var de diskEntry
	if perr == nil {
		perr = json.Unmarshal(payload, &de)
	}
	if perr != nil {
		e.quarantine(key)
		return nil, false
	}
	if de.Kernel != req.Kernel || de.Seed != req.Seed ||
		de.Samples != req.Samples || de.Dim != req.Dim ||
		de.Sampler != req.Sampler || de.FirstShard != req.FirstShard ||
		!bytes.Equal(de.Params, req.Params) || len(de.States) != req.Dim {
		return nil, false
	}
	// Refresh the entry's mtime so the disk layer's LRU eviction sees
	// reads, not just writes, as recency. Best-effort.
	now := time.Now()
	_ = os.Chtimes(e.diskPath(key), now, now)
	return de.States, true
}

// saveDisk persists an entry best-effort (a cache write failure must
// not fail the run); failures are counted in Stats.WriteFails.
func (e *Executor) saveDisk(key string, req montecarlo.Request, states []montecarlo.AccumulatorState) {
	if e.dir == "" {
		return
	}
	var written int64
	err := func() error {
		if err := os.MkdirAll(e.dir, 0o755); err != nil {
			return err
		}
		data, err := json.Marshal(diskEntry{
			Kernel:     req.Kernel,
			Params:     req.Params,
			Seed:       req.Seed,
			Samples:    req.Samples,
			Dim:        req.Dim,
			Sampler:    req.Sampler,
			FirstShard: req.FirstShard,
			States:     states,
		})
		if err != nil {
			return err
		}
		tmp, err := os.CreateTemp(e.dir, "."+key+".tmp-*")
		if err != nil {
			return err
		}
		n, err := tmp.Write(sealEntry(data))
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
			return err
		}
		written = int64(n)
		if err := tmp.Close(); err != nil {
			os.Remove(tmp.Name())
			return err
		}
		return os.Rename(tmp.Name(), e.diskPath(key))
	}()
	if err != nil {
		e.mu.Lock()
		e.stats.WriteFails++
		e.mu.Unlock()
		return
	}
	if e.maxBytes > 0 {
		e.enforceDiskBudget(int64(written))
	}
}

// enforceDiskBudget folds one write into the running directory size
// and, only when the bound is exceeded, runs an eviction pass. The
// pass trims an extra 1/8 below MaxBytes so a cache hovering at its
// bound does not pay a full directory scan on every subsequent write,
// and re-seeds the running total from what the scan saw.
func (e *Executor) enforceDiskBudget(written int64) {
	e.mu.Lock()
	if !e.diskScanned {
		e.mu.Unlock()
		st, err := StatDir(e.dir)
		e.mu.Lock()
		if err == nil && !e.diskScanned {
			e.diskScanned = true
			e.diskBytes = st.Bytes
		}
	} else {
		e.diskBytes += written
	}
	over := e.diskScanned && e.diskBytes > e.maxBytes
	e.mu.Unlock()
	if !over {
		return
	}
	lowWater := e.maxBytes - e.maxBytes/8
	evicted, remaining, err := EvictDir(e.dir, lowWater)
	if err != nil {
		return
	}
	e.mu.Lock()
	e.diskBytes = remaining
	e.stats.DiskEvictions += int64(evicted)
	e.mu.Unlock()
}

// EvictDir removes least-recently-used cache entries — mtime order;
// both writes and disk hits refresh it — until the directory's entries
// total at most maxBytes. Only cache-owned entry files are considered
// or touched. It returns the number of entries removed and the bytes
// remaining. Best-effort on racing removals: an entry already gone
// just doesn't count.
func EvictDir(dir string, maxBytes int64) (removed int, remaining int64, err error) {
	items, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, 0, nil
	}
	if err != nil {
		return 0, 0, err
	}
	type fileInfo struct {
		name  string
		size  int64
		mtime time.Time
	}
	var files []fileInfo
	var total int64
	for _, it := range items {
		if it.IsDir() || !isEntryName(it.Name()) {
			continue
		}
		info, err := it.Info()
		if err != nil {
			continue
		}
		files = append(files, fileInfo{name: it.Name(), size: info.Size(), mtime: info.ModTime()})
		total += info.Size()
	}
	if total <= maxBytes {
		return 0, total, nil
	}
	sort.Slice(files, func(i, j int) bool { return files[i].mtime.Before(files[j].mtime) })
	for _, f := range files {
		if total <= maxBytes {
			break
		}
		if err := os.Remove(filepath.Join(dir, f.name)); err != nil {
			if os.IsNotExist(err) {
				total -= f.size
			}
			continue
		}
		total -= f.size
		removed++
	}
	return removed, total, nil
}

// isEntryName reports whether a file name is a cache-owned entry:
// <64 hex digits>.json, exactly what saveDisk writes. StatDir and
// ClearDir touch nothing else, so pointing -cache-dir at a directory
// with unrelated JSON files (artifacts, bench snapshots) is safe.
func isEntryName(name string) bool {
	const hexLen = sha256.Size * 2
	if len(name) != hexLen+len(".json") || filepath.Ext(name) != ".json" {
		return false
	}
	for _, r := range name[:hexLen] {
		switch {
		case r >= '0' && r <= '9', r >= 'a' && r <= 'f':
		default:
			return false
		}
	}
	return true
}

// DirStats summarizes a persistent cache directory.
type DirStats struct {
	Dir         string
	Entries     int
	Bytes       int64
	Quarantined int // corrupt entries parked in the quarantine sidecar
}

// StatDir reports the entry count and total size of a persistent cache
// directory, plus how many corrupt entries sit in its quarantine
// sidecar. A missing directory is an empty cache, not an error.
func StatDir(dir string) (DirStats, error) {
	st := DirStats{Dir: dir}
	items, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return st, nil
	}
	if err != nil {
		return st, err
	}
	for _, it := range items {
		if it.IsDir() || !isEntryName(it.Name()) {
			continue
		}
		info, err := it.Info()
		if err != nil {
			continue
		}
		st.Entries++
		st.Bytes += info.Size()
	}
	if qItems, err := os.ReadDir(filepath.Join(dir, QuarantineDir)); err == nil {
		for _, it := range qItems {
			if !it.IsDir() && isEntryName(it.Name()) {
				st.Quarantined++
			}
		}
	}
	return st, nil
}

// ClearDir removes every cache entry in a persistent cache directory.
// It returns the number of entries removed. Only cache-owned entry
// files (hex key + .json) are touched.
func ClearDir(dir string) (int, error) {
	items, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	removed := 0
	for _, it := range items {
		if it.IsDir() || !isEntryName(it.Name()) {
			continue
		}
		if err := os.Remove(filepath.Join(dir, it.Name())); err != nil {
			return removed, err
		}
		removed++
	}
	return removed, nil
}
