package core

import (
	"context"
	"math"
	"testing"

	"carriersense/internal/capacity"
	"carriersense/internal/rng"
)

func TestMultiReducesToTwoPairStructure(t *testing.T) {
	// At n = 2 the policies must sit in the familiar order: TDMA below
	// best-k, concurrency below best-k, CS between the pure policies'
	// envelope and best-k.
	mm := NewMulti(DefaultMultiParams(2))
	a := mm.EstimateMulti(context.Background(), 1, 30_000)
	if a.BestK.Mean < a.TDMA.Mean*0.99 || a.BestK.Mean < a.Conc.Mean*0.99 {
		t.Errorf("best-k %v below a pure policy (tdma %v, conc %v)",
			a.BestK.Mean, a.TDMA.Mean, a.Conc.Mean)
	}
	lo := math.Min(a.TDMA.Mean, a.Conc.Mean)
	if a.CS.Mean < lo*0.95 {
		t.Errorf("CS %v below both pure policies (%v)", a.CS.Mean, lo)
	}
	if eff := a.Efficiency(); eff < 0.8 || eff > 1.01 {
		t.Errorf("n=2 efficiency = %v", eff)
	}
}

func TestMultiTDMAScaling(t *testing.T) {
	// TDMA per-pair throughput scales as 1/n (same link distribution,
	// 1/n of the airtime each).
	a2 := NewMulti(DefaultMultiParams(2)).EstimateMulti(context.Background(), 2, 30_000)
	a4 := NewMulti(DefaultMultiParams(4)).EstimateMulti(context.Background(), 2, 30_000)
	ratio := a2.TDMA.Mean / a4.TDMA.Mean
	if math.Abs(ratio-2) > 0.1 {
		t.Errorf("TDMA scaling 2->4 pairs: ratio %v, want ~2", ratio)
	}
}

func TestMultiSinglePairDegenerate(t *testing.T) {
	// n = 1: no competition. TDMA = conc = CS = best-k = C_single.
	p := DefaultMultiParams(1)
	mm := NewMulti(p)
	a := mm.EstimateMulti(context.Background(), 3, 20_000)
	for name, v := range map[string]float64{
		"conc": a.Conc.Mean, "cs": a.CS.Mean, "bestk": a.BestK.Mean,
	} {
		if math.Abs(v-a.TDMA.Mean)/a.TDMA.Mean > 0.02 {
			t.Errorf("n=1: %s = %v differs from tdma %v", name, v, a.TDMA.Mean)
		}
	}
	if a.AvgActive.Mean != 1 {
		t.Errorf("n=1 active count = %v", a.AvgActive.Mean)
	}
}

func TestMultiCSEfficiencyStaysHighWithAdaptiveRate(t *testing.T) {
	// §3.2.1's claim: small n > 2 does not fundamentally alter the
	// results — CS stays within ~15% of the optimal proxy.
	for _, n := range []int{2, 4, 6} {
		a := NewMulti(DefaultMultiParams(n)).EstimateMulti(context.Background(), uint64(n), 15_000)
		if a.Efficiency() < 0.85 {
			t.Errorf("n=%d: CS efficiency %v", n, a.Efficiency())
		}
	}
}

func TestMultiFixedRateHeadroomGrows(t *testing.T) {
	// Footnote 18: exposed-terminal headroom grows with concurrency
	// under a fixed low bitrate, unlike under adaptive bitrate.
	headroom := func(n int, capModel capacity.Model) float64 {
		p := DefaultMultiParams(n)
		p.Env.Capacity = capModel
		return NewMulti(p).EstimateMulti(context.Background(), uint64(n)*7, 15_000).ExposedHeadroom()
	}
	fixed := capacity.FixedRate{Rate: 1.25, MinSNR: 2.5}
	if h2, h6 := headroom(2, fixed), headroom(6, fixed); h6 < h2 {
		t.Errorf("fixed-rate headroom should grow with n: n=2 %v, n=6 %v", h2, h6)
	}
	if h2, h6 := headroom(2, nil), headroom(6, nil); h6 > h2 {
		t.Errorf("adaptive headroom should not grow with n: n=2 %v, n=6 %v", h2, h6)
	}
}

func TestMultiCSRoundIsMaximalIndependentSet(t *testing.T) {
	mm := NewMulti(DefaultMultiParams(6))
	src := rng.New(9)
	pThresh := mm.model.ThresholdPower(mm.p.DThresh)
	sc := mm.newScratch()
	n := mm.p.NPairs
	sensed := func(i, j int) bool { return sc.gSense[i*n+j] > pThresh }
	for trial := 0; trial < 200; trial++ {
		mm.sampleInto(src, sc)
		active := mm.csRound(src, sc, pThresh)
		if active == 0 {
			t.Fatal("empty active set")
		}
		// Independence: no two active senders sense each other.
		for i := 0; i < 6; i++ {
			for j := i + 1; j < 6; j++ {
				if active&(1<<uint(i)) != 0 && active&(1<<uint(j)) != 0 &&
					sensed(i, j) {
					t.Fatalf("active senders %d,%d sense each other", i, j)
				}
			}
		}
		// Maximality: every inactive sender is blocked by some active one.
		for i := 0; i < 6; i++ {
			if active&(1<<uint(i)) != 0 {
				continue
			}
			blocked := false
			for j := 0; j < 6; j++ {
				if active&(1<<uint(j)) != 0 && sensed(i, j) {
					blocked = true
					break
				}
			}
			if !blocked {
				t.Fatalf("inactive sender %d not blocked (set not maximal)", i)
			}
		}
	}
}

func TestMultiAvgActiveBounds(t *testing.T) {
	for _, n := range []int{2, 5} {
		a := NewMulti(DefaultMultiParams(n)).EstimateMulti(context.Background(), 4, 10_000)
		if a.AvgActive.Mean < 1 || a.AvgActive.Mean > float64(n) {
			t.Errorf("n=%d avg active = %v", n, a.AvgActive.Mean)
		}
	}
}

func TestMultiBestLevelInRange(t *testing.T) {
	a := NewMulti(DefaultMultiParams(5)).EstimateMulti(context.Background(), 5, 10_000)
	if a.MeanBestLevel.Mean < 1 || a.MeanBestLevel.Mean > 5 {
		t.Errorf("mean best level = %v", a.MeanBestLevel.Mean)
	}
}

func TestNewMultiPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NPairs=0 accepted")
		}
	}()
	NewMulti(MultiParams{Env: DefaultParams(), NPairs: 0})
}

func TestPopcount(t *testing.T) {
	cases := map[uint64]int{0: 0, 1: 1, 0b1011: 3, 0xFF: 8}
	for x, want := range cases {
		if got := popcount(x); got != want {
			t.Errorf("popcount(%b) = %d, want %d", x, got, want)
		}
	}
}
