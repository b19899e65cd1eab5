package cache

// Disk-entry integrity: a damaged persistent entry must read as a
// miss — never a wrong result — be counted, and be quarantined out of
// the entry namespace. Each corruption (truncated file, flipped
// payload byte, wrong-length header, missing header) is applied to a
// freshly written entry; the re-estimation after the miss must be
// bit-identical to an undamaged run.

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"carriersense/internal/fault"
	"carriersense/internal/montecarlo"
)

// writeEntryVia runs one estimation through a disk-backed executor so
// the persistent layer holds exactly one sealed entry, and returns
// the entry path plus the clean result.
func writeEntryVia(t *testing.T, dir string, req montecarlo.Request) (string, []montecarlo.Accumulator) {
	t.Helper()
	e := New(montecarlo.Local{}, Options{Dir: dir})
	clean := mustEstimate(t, e, req)
	path := filepath.Join(dir, Key(req)+".json")
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("estimation left no disk entry: %v", err)
	}
	return path, clean
}

// reload builds a fresh executor over the same directory (no warm
// memory layer) and returns its result and stats for one estimation.
func reload(t *testing.T, dir string, req montecarlo.Request) ([]montecarlo.Accumulator, Stats) {
	t.Helper()
	e := New(montecarlo.Local{}, Options{Dir: dir})
	got := mustEstimate(t, e, req)
	return got, e.Stats()
}

func TestCorruptDiskEntriesReadAsMisses(t *testing.T) {
	req := testReq(1.25, 42, montecarlo.ShardSize+17)
	damage := []struct {
		name   string
		mangle func(t *testing.T, path string, data []byte) []byte
	}{
		{"truncated file", func(t *testing.T, _ string, data []byte) []byte {
			return data[:len(data)/2]
		}},
		{"flipped payload byte", func(t *testing.T, _ string, data []byte) []byte {
			out := append([]byte(nil), data...)
			// Flip a byte in the middle of the JSON payload — past the
			// header line, inside checksummed bytes.
			nl := bytes.IndexByte(out, '\n')
			out[nl+1+(len(out)-nl)/2] ^= 0x01
			return out
		}},
		{"wrong-length header", func(t *testing.T, _ string, data []byte) []byte {
			nl := bytes.IndexByte(data, '\n')
			fields := strings.Fields(string(data[:nl]))
			n, err := strconv.Atoi(fields[2])
			if err != nil {
				t.Fatalf("unparseable entry header %q", string(data[:nl]))
			}
			fields[2] = strconv.Itoa(n + 8)
			return append([]byte(strings.Join(fields, " ")+"\n"), data[nl+1:]...)
		}},
		{"headerless entry", func(t *testing.T, _ string, data []byte) []byte {
			// The bare JSON payload with its header stripped: current
			// keys were only ever written sealed, so this is damage.
			return data[bytes.IndexByte(data, '\n')+1:]
		}},
	}
	for _, d := range damage {
		t.Run(d.name, func(t *testing.T) {
			dir := t.TempDir()
			path, clean := writeEntryVia(t, dir, req)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, d.mangle(t, path, data), 0o644); err != nil {
				t.Fatal(err)
			}
			got, st := reload(t, dir, req)
			if !sameAccs(got, clean) {
				t.Fatal("result after corruption differs from the clean run")
			}
			if st.DiskHits != 0 || st.Misses != 1 {
				t.Fatalf("corrupt entry did not read as a miss: %+v", st)
			}
			if st.Corrupt != 1 {
				t.Fatalf("Stats.Corrupt = %d, want 1", st.Corrupt)
			}
			// The damaged file left the entry namespace for the
			// quarantine sidecar...
			if _, err := os.Stat(filepath.Join(dir, QuarantineDir, Key(req)+".json")); err != nil {
				t.Fatalf("corrupt entry not quarantined: %v", err)
			}
			ds, err := StatDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if ds.Quarantined != 1 {
				t.Fatalf("DirStats.Quarantined = %d, want 1", ds.Quarantined)
			}
			// ...and the miss stored a fresh, healthy entry in its place
			// (the estimation above re-wrote it), so the next executor
			// gets a disk hit again.
			if _, st := reload(t, dir, req); st.DiskHits != 1 {
				t.Fatalf("re-written entry not served from disk: %+v", st)
			}
		})
	}
}

func TestInjectedCacheFlipQuarantines(t *testing.T) {
	// The fault layer's flip=1 mangles the first disk load; the
	// integrity check must turn it into a quarantined miss with a
	// bit-identical recomputation — the chaos smoke's cache leg, in
	// miniature.
	sched, err := fault.Parse("cache:flip=1,seed=99")
	if err != nil {
		t.Fatal(err)
	}
	fault.Install(sched.Plan("cache"))
	t.Cleanup(func() { fault.Install(nil) })

	req := testReq(3, 13, montecarlo.ShardSize)
	dir := t.TempDir()
	_, clean := writeEntryVia(t, dir, req)
	got, st := reload(t, dir, req)
	if !sameAccs(got, clean) {
		t.Fatal("result under an injected flip differs from the clean run")
	}
	if st.Corrupt != 1 || st.DiskHits != 0 || st.Misses != 1 {
		t.Fatalf("injected flip not treated as corruption: %+v", st)
	}
	// Budget spent: the re-written entry loads clean.
	if _, st := reload(t, dir, req); st.DiskHits != 1 || st.Corrupt != 0 {
		t.Fatalf("post-flip reload not a clean disk hit: %+v", st)
	}
}

func TestSealOpenRoundTrip(t *testing.T) {
	payload := []byte(`{"states":[1,2,3]}`)
	got, err := openEntry(sealEntry(payload))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("round trip = %q, want %q", got, payload)
	}
	if _, err := openEntry(nil); err == nil {
		t.Fatal("empty file opened without error")
	}
}
