package rate

import (
	"testing"

	"carriersense/internal/capacity"
	"carriersense/internal/phy"
	"carriersense/internal/sim"
)

// feed drives a selector with synthetic outcomes: success iff the
// chosen rate's index is <= maxGood.
func feed(sel interface {
	Select(phy.NodeID) capacity.Rate
	Update(phy.NodeID, capacity.Rate, bool, sim.Time)
}, table capacity.RateTable, maxGood, frames int) map[float64]int {
	counts := make(map[float64]int)
	for i := 0; i < frames; i++ {
		r := sel.Select(1)
		counts[r.Mbps]++
		idx := -1
		for j, e := range table {
			if e.Mbps == r.Mbps {
				idx = j
			}
		}
		ok := idx <= maxGood
		airtime := sim.FromMicros(airtimeNanos(r, 1400) / 1000)
		sel.Update(1, r, ok, airtime)
	}
	return counts
}

func TestSampleRateConvergesToBestRate(t *testing.T) {
	table := capacity.Table80211a
	// Only rates up to 24 Mb/s (index 4) succeed; SampleRate must
	// settle on 24, the highest working rate (lowest per-frame time).
	sr := NewSampleRate(table)
	counts := feed(sr, table, 4, 3000)
	if counts[24] < 2000 {
		t.Errorf("24 Mb/s used %d/3000 times; distribution %v", counts[24], counts)
	}
	// Rates above 24 must be mostly abandoned after their failures.
	if counts[54] > 300 {
		t.Errorf("54 Mb/s sampled too often: %v", counts)
	}
}

func TestSampleRateAllRatesWork(t *testing.T) {
	table := capacity.Table80211a
	sr := NewSampleRate(table)
	counts := feed(sr, table, len(table)-1, 2000)
	if counts[54] < 1500 {
		t.Errorf("lossless link should settle at 54 Mb/s: %v", counts)
	}
}

func TestSampleRateProbesOccasionally(t *testing.T) {
	// With the working ceiling at 12 Mb/s, faster (lower-airtime)
	// rates remain plausible and must keep being sampled; note the
	// inverse case — settled at the top rate with zero loss — is
	// exactly when Bicket's criterion stops all probing (nothing can
	// beat the incumbent even losslessly).
	table := capacity.Table80211a
	sr := NewSampleRate(table)
	counts := feed(sr, table, 2, 2000)
	probes := 0
	for mbps, c := range counts {
		if mbps > 12 {
			probes += c
		}
	}
	if probes == 0 {
		t.Errorf("no upward probing: %v", counts)
	}
	if probes > 600 {
		t.Errorf("probing should be a small fraction: %v", counts)
	}

	// And the settled-at-top case: no probing at all is correct.
	sr2 := NewSampleRate(table)
	counts2 := feed(sr2, table, len(table)-1, 2000)
	if counts2[54] < 1900 {
		t.Errorf("lossless top rate should dominate: %v", counts2)
	}
}

func TestSampleRateUnknownRateUpdateIgnored(t *testing.T) {
	sr := NewSampleRate(capacity.Table80211a)
	// Must not panic or corrupt state.
	sr.Update(1, capacity.Rate{Mbps: 11}, true, sim.Millisecond)
	_ = sr.Select(1)
}

func TestSampleRatePerDestinationState(t *testing.T) {
	table := capacity.Table80211a
	sr := NewSampleRate(table)
	// Destination 1: everything works. Destination 2: only 6 Mb/s.
	for i := 0; i < 1500; i++ {
		r := sr.Select(1)
		sr.Update(1, r, true, sim.FromMicros(airtimeNanos(r, 1400)/1000))
		r2 := sr.Select(2)
		sr.Update(2, r2, r2.Mbps == 6, sim.FromMicros(airtimeNanos(r2, 1400)/1000))
	}
	if r := sr.Select(1); r.Mbps < 36 {
		t.Errorf("dst 1 settled at %v Mb/s, want high", r.Mbps)
	}
	// dst 2 should be at 6 most of the time; sample a few selections.
	low := 0
	for i := 0; i < 20; i++ {
		if sr.Select(2).Mbps == 6 {
			low++
		}
	}
	if low < 15 {
		t.Errorf("dst 2 at 6 Mb/s only %d/20 selections", low)
	}
}

func TestARFClimbsAndFalls(t *testing.T) {
	table := capacity.Table80211a
	arf := NewARF(table)
	// All successes: climbs to the top.
	counts := feed(arf, table, len(table)-1, 200)
	if counts[54] == 0 {
		t.Errorf("ARF never reached 54: %v", counts)
	}
	// Now everything fails: falls back to the bottom.
	for i := 0; i < 100; i++ {
		r := arf.Select(1)
		arf.Update(1, r, false, sim.Millisecond)
	}
	if r := arf.Select(1); r.Mbps != 6 {
		t.Errorf("ARF after failures at %v Mb/s, want 6", r.Mbps)
	}
}

func TestARFStartsAtLowestRate(t *testing.T) {
	arf := NewARF(capacity.Table80211a)
	if r := arf.Select(1); r.Mbps != 6 {
		t.Errorf("ARF starts at %v", r.Mbps)
	}
}

func TestARFOscillatesAtBoundary(t *testing.T) {
	// Classic ARF pathology: when the top working rate is in the
	// middle, ARF keeps probing upward and failing. Verify it still
	// spends most time at the right rate.
	table := capacity.Table80211a
	arf := NewARF(table)
	counts := feed(arf, table, 2, 2000) // 12 Mb/s is the ceiling
	if counts[12] < 800 {
		t.Errorf("ARF at ceiling rate only %d/2000: %v", counts[12], counts)
	}
}

func TestAirtimeNanos(t *testing.T) {
	// 1400 B at 6 Mb/s: 468 symbols + PLCP = 1892 µs.
	if got := airtimeNanos(capacity.Table80211a[0], 1400); got != 1892e3 {
		t.Errorf("airtime = %v ns, want 1892000", got)
	}
	// Airtime decreases with rate.
	prev := airtimeNanos(capacity.Table80211a[0], 1400)
	for _, r := range capacity.Table80211a[1:] {
		got := airtimeNanos(r, 1400)
		if got >= prev {
			t.Errorf("airtime did not decrease at %v Mb/s", r.Mbps)
		}
		prev = got
	}
}
