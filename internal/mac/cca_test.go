package mac

import (
	"fmt"
	"reflect"
	"testing"

	"carriersense/internal/capacity"
	"carriersense/internal/phy"
	"carriersense/internal/rng"
	"carriersense/internal/sim"
)

// ccaTrace is everything a run leaves behind: every reception each
// radio resolved, the stations' counters, the events the simulator ran
// and the next draw of the medium's random stream.
type ccaTrace struct {
	rx      [5][]phy.RxResult
	stats   [5]Stats
	events  uint64
	nextRNG uint64
}

// runCCASchedule runs one random two-sender schedule: senders 0 and 2,
// their receivers 1 and 3, sender 2 starting mid-run, and radio 4
// joining mid-run (most likely while a frame is on the air) and later
// sending broadcasts of its own. With listenAll, every radio has a CCA
// listener from the moment it joins (a no-op until StartSaturated
// installs the MAC's), so the medium refreshes every radio's CCA;
// without it the passive radios have none and the medium may skip
// them.
func runCCASchedule(trial uint64, listenAll bool) ccaTrace {
	plan := rng.New(trial)
	ch := matrixChannel{}
	for a := phy.NodeID(0); a < 5; a++ {
		for b := a + 1; b < 5; b++ {
			ch.set(a, b, plan.Uniform(-98, -55))
		}
	}
	cfg := phy.DefaultConfig()
	cfg.PreambleCarrierSense = trial%2 == 0
	cfg.CCAThresholdDBm = plan.Uniform(-90, -70)
	cfg.Fade = capacity.FadeModel{SigmaDB: plan.Uniform(0, 4), OutageProb: plan.Uniform(0, 0.1), OutageDepthDB: 25}
	macCfg := DefaultConfig()
	macCfg.CarrierSense = plan.Float64() < 0.8
	rate := capacity.Table80211a[plan.IntN(len(capacity.Table80211a))]
	bytes := 200 + plan.IntN(1300)
	start2 := sim.Time(plan.Uniform(0, float64(25*sim.Millisecond)))
	join4 := sim.Time(plan.Uniform(float64(5*sim.Millisecond), float64(30*sim.Millisecond)))
	start4 := join4 + sim.Time(plan.Uniform(0, float64(10*sim.Millisecond)))

	medSrc := rng.New(trial ^ 0x9e3779b97f4a7c15)
	src := rng.New(trial + 1)
	s := sim.New()
	medium := phy.NewMedium(s, ch, cfg, medSrc)
	var tr ccaTrace
	var st [5]*Station
	join := func(i int) {
		r := medium.AddRadio(phy.NodeID(i), 15)
		st[i] = NewStation(s, r, macCfg, src.Split(), rate)
		onRx := r.OnRx
		r.OnRx = func(res phy.RxResult) {
			tr.rx[i] = append(tr.rx[i], res)
			onRx(res)
		}
		if listenAll {
			r.ListenCCA(func(bool) {})
		}
	}
	for i := range 4 {
		join(i)
	}
	st[0].StartSaturated(phy.Broadcast, bytes)
	s.At(start2, func() { st[2].StartSaturated(phy.Broadcast, bytes) })
	s.At(join4, func() { join(4) })
	s.At(start4, func() { st[4].StartSaturated(phy.Broadcast, bytes) })
	s.Run(50 * sim.Millisecond)
	for i := range st {
		tr.stats[i] = st[i].Stats
	}
	tr.events = s.EventsFired()
	tr.nextRNG = medSrc.Uint64()
	return tr
}

// TestCCASkipLeavesRunsUnchanged checks that skipping the CCA of
// radios nobody listens to changes nothing: random broadcast
// schedules, under preamble and energy-only CCA, with a sender started
// mid-run and a radio joining mid-run, give the same receptions,
// counters, event count and medium random state as runs where every
// radio has a listener.
func TestCCASkipLeavesRunsUnchanged(t *testing.T) {
	for trial := uint64(1); trial <= 40; trial++ {
		got, want := runCCASchedule(trial, false), runCCASchedule(trial, true)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: skipping passive radios' CCA changed the run:\n got  %s\n want %s",
				trial, summarize(got), summarize(want))
		}
		if got.stats[0].DataSent == 0 || got.stats[2].DataSent == 0 {
			t.Fatalf("trial %d: a sender sent nothing: %s", trial, summarize(got))
		}
	}
}

func summarize(tr ccaTrace) string {
	return fmt.Sprintf("rx %d/%d/%d/%d/%d stats %+v events %d next %d",
		len(tr.rx[0]), len(tr.rx[1]), len(tr.rx[2]), len(tr.rx[3]), len(tr.rx[4]), tr.stats, tr.events, tr.nextRNG)
}
