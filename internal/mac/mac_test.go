package mac

import (
	"math"
	"testing"

	"carriersense/internal/capacity"
	"carriersense/internal/phy"
	"carriersense/internal/rng"
	"carriersense/internal/sim"
)

// matrixChannel is a symmetric gain matrix for small topologies.
type matrixChannel map[[2]phy.NodeID]float64

func (m matrixChannel) set(a, b phy.NodeID, g float64) {
	m[[2]phy.NodeID{a, b}] = g
	m[[2]phy.NodeID{b, a}] = g
}

func (m matrixChannel) GainDB(from, to phy.NodeID) float64 {
	if g, ok := m[[2]phy.NodeID{from, to}]; ok {
		return g
	}
	return -300
}

func quietPhy() phy.Config {
	cfg := phy.DefaultConfig()
	cfg.Fade = capacity.FadeModel{}
	return cfg
}

var rate6 = capacity.Table80211a[0]

// harness bundles a small simulation.
type harness struct {
	s      *sim.Simulator
	medium *phy.Medium
	src    *rng.Source
}

func newHarness(ch phy.Channel, cfg phy.Config, seed uint64) *harness {
	src := rng.New(seed)
	s := sim.New()
	return &harness{s: s, medium: phy.NewMedium(s, ch, cfg, src.Split()), src: src}
}

func (h *harness) station(id phy.NodeID, cfg Config, rate capacity.Rate) *Station {
	return NewStation(h.s, h.medium.AddRadio(id, 15), cfg, h.src.Split(), rate)
}

func countData(st *Station, from phy.NodeID) *uint64 {
	var n uint64
	st.OnData = func(res phy.RxResult) {
		if res.Frame.Src == from {
			n++
		}
	}
	return &n
}

func TestSingleStationSaturatedThroughput(t *testing.T) {
	ch := matrixChannel{}
	ch.set(0, 1, -80) // 30 dB SNR
	h := newHarness(ch, quietPhy(), 1)
	tx := h.station(0, DefaultConfig(), rate6)
	rx := h.station(1, DefaultConfig(), capacity.Rate{})
	got := countData(rx, 0)
	tx.StartSaturated(phy.Broadcast, 1400)
	h.s.Run(2 * sim.Second)
	// Frame time 1892 µs + DIFS 34 + TxTurnaround 1 + mean backoff
	// 7.97·9 = 71.7 → ~1999 µs/frame → ~500 frames/s. The mean
	// backoff is 7.97 slots, not 7.5: a post-transmission draw of 0 is
	// drawn again, so 0 has probability 1/256 and each of 1..15 has
	// 17/256.
	rate := float64(*got) / 2
	if rate < 470 || rate > 530 {
		t.Errorf("saturated 6M throughput = %v pkt/s, want ~500", rate)
	}
	if tx.Stats.DataSent < uint64(rate*2)-2 {
		t.Errorf("sender stats inconsistent: sent %d, delivered %v", tx.Stats.DataSent, *got)
	}
}

func TestTwoStationsShareFairly(t *testing.T) {
	// Both senders in carrier sense range: DCF splits the channel and
	// the total matches the single-sender rate (no collisions beyond
	// slot ties).
	ch := matrixChannel{}
	ch.set(0, 1, -80)
	ch.set(2, 3, -80)
	ch.set(0, 2, -70) // strong mutual sensing
	ch.set(0, 3, -90)
	ch.set(2, 1, -90)
	h := newHarness(ch, quietPhy(), 2)
	cfg := DefaultConfig()
	s0 := h.station(0, cfg, rate6)
	rx1 := h.station(1, cfg, capacity.Rate{})
	s2 := h.station(2, cfg, rate6)
	rx3 := h.station(3, cfg, capacity.Rate{})
	got1 := countData(rx1, 0)
	got3 := countData(rx3, 2)
	s0.StartSaturated(phy.Broadcast, 1400)
	s2.StartSaturated(phy.Broadcast, 1400)
	h.s.Run(2 * sim.Second)
	total := float64(*got1+*got3) / 2
	if total < 400 || total > 530 {
		t.Errorf("shared total = %v pkt/s, want ~480", total)
	}
	// Jain fairness of the two counts.
	x, y := float64(*got1), float64(*got3)
	jain := (x + y) * (x + y) / (2 * (x*x + y*y))
	if jain < 0.95 {
		t.Errorf("unfair split: %v vs %v (jain %v)", x, y, jain)
	}
	// Both stations spent time deferring.
	if s0.Stats.DeferredNanos == 0 || s2.Stats.DeferredNanos == 0 {
		t.Error("no deferral recorded under contention")
	}
}

func TestCarrierSenseDisabledCollides(t *testing.T) {
	// Same topology with receivers in the crossfire: disabling CS
	// produces heavy collisions — both receivers hear both senders at
	// comparable power.
	ch := matrixChannel{}
	ch.set(0, 1, -80)
	ch.set(2, 3, -80)
	ch.set(0, 2, -70)
	ch.set(0, 3, -83)
	ch.set(2, 1, -83)
	mk := func(cs bool, seed uint64) float64 {
		h := newHarness(ch, quietPhy(), seed)
		cfg := DefaultConfig()
		cfg.CarrierSense = cs
		s0 := h.station(0, cfg, rate6)
		rx1 := h.station(1, cfg, capacity.Rate{})
		s2 := h.station(2, cfg, rate6)
		rx3 := h.station(3, cfg, capacity.Rate{})
		got1 := countData(rx1, 0)
		got3 := countData(rx3, 2)
		s0.StartSaturated(phy.Broadcast, 1400)
		s2.StartSaturated(phy.Broadcast, 1400)
		h.s.Run(2 * sim.Second)
		return float64(*got1+*got3) / 2
	}
	withCS := mk(true, 3)
	withoutCS := mk(false, 3)
	if withoutCS > withCS/2 {
		t.Errorf("CS off should collapse throughput: on=%v off=%v", withCS, withoutCS)
	}
}

func TestSlotCollisions(t *testing.T) {
	// Two saturated stations with a tiny CW collide on identical slot
	// choices — the "slot collision" pathology of §5. With CWMin = 0
	// every post-frame backoff picks slot 0 and the two stations,
	// synchronized by the previous frame's end, collide repeatedly.
	ch := matrixChannel{}
	ch.set(0, 1, -80)
	ch.set(2, 3, -80)
	ch.set(0, 2, -70)
	ch.set(0, 3, -80)
	ch.set(2, 1, -80)
	run := func(cwMin int) float64 {
		h := newHarness(ch, quietPhy(), 12)
		cfg := DefaultConfig()
		cfg.CWMin = cwMin
		s0 := h.station(0, cfg, rate6)
		rx1 := h.station(1, cfg, capacity.Rate{})
		s2 := h.station(2, cfg, rate6)
		rx3 := h.station(3, cfg, capacity.Rate{})
		got1 := countData(rx1, 0)
		got3 := countData(rx3, 2)
		s0.StartSaturated(phy.Broadcast, 1400)
		s2.StartSaturated(phy.Broadcast, 1400)
		h.s.Run(1 * sim.Second)
		return float64(*got1 + *got3)
	}
	healthy := run(15)
	degenerate := run(0)
	if degenerate > healthy*0.5 {
		t.Errorf("CWMin=0 should collapse via slot collisions: %v vs %v", degenerate, healthy)
	}
}

func TestJainHelper(t *testing.T) {
	// Sanity for the fairness arithmetic used in tests above.
	x, y := 100.0, 100.0
	jain := (x + y) * (x + y) / (2 * (x*x + y*y))
	if math.Abs(jain-1) > 1e-12 {
		t.Errorf("jain of equal shares = %v", jain)
	}
}
