package capacity

import (
	"math"
	"testing"
	"testing/quick"
)

func TestShannonBasics(t *testing.T) {
	s := NewShannon()
	if got := s.Throughput(0); got != 0 {
		t.Errorf("capacity at 0 SNR = %v", got)
	}
	if got := s.Throughput(-1); got != 0 {
		t.Errorf("capacity at negative SNR = %v", got)
	}
	if got := s.Throughput(math.E - 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("ln(1+e-1) = %v, want 1", got)
	}
	half := Shannon{Efficiency: 0.5}
	if got := half.Throughput(math.E - 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("efficiency scaling = %v, want 0.5", got)
	}
	zeroEff := Shannon{} // zero value defaults to efficiency 1
	if got := zeroEff.Throughput(math.E - 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("zero-value efficiency = %v, want 1", got)
	}
}

func TestShannonMonotone(t *testing.T) {
	s := NewShannon()
	f := func(rawA, rawB float64) bool {
		a := math.Abs(math.Mod(rawA, 1e6))
		b := math.Abs(math.Mod(rawB, 1e6))
		if a > b {
			a, b = b, a
		}
		return s.Throughput(a) <= s.Throughput(b)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFixedRateStep(t *testing.T) {
	f := FixedRate{Rate: 5, MinSNR: 10}
	if got := f.Throughput(9.99); got != 0 {
		t.Errorf("below threshold = %v", got)
	}
	if got := f.Throughput(10); got != 5 {
		t.Errorf("at threshold = %v", got)
	}
	if got := f.Throughput(1e9); got != 5 {
		t.Errorf("fixed rate can't exploit high SNR: %v", got)
	}
}

func TestDiscreteMatchesBest(t *testing.T) {
	d := Discrete{Table: Table80211a}
	for _, snrDB := range []float64{-5, 3, 6, 9.5, 15, 25, 40} {
		snr := math.Pow(10, snrDB/10)
		got := d.Throughput(snr)
		// The best rate is the highest one whose requirement is met.
		want := 0.0
		for _, r := range Table80211a {
			if snrDB >= r.MinSNRdB && r.Mbps > want {
				want = r.Mbps
			}
		}
		if got != want {
			t.Errorf("snr=%vdB: Discrete=%v, Best=%v", snrDB, got, want)
		}
	}
}

func TestDiscreteMonotone(t *testing.T) {
	// The discrete rate is nondecreasing in SNR.
	d := Discrete{Table: Table80211a}
	prev := 0.0
	for snrDB := -10.0; snrDB < 40; snrDB += 0.5 {
		mbps := d.Throughput(math.Pow(10, snrDB/10))
		if mbps < prev {
			t.Errorf("rate decreased at %v dB: %v -> %v", snrDB, prev, mbps)
		}
		prev = mbps
	}
	if got := d.Throughput(1); got != 0 {
		t.Errorf("0 dB supports %v Mb/s, want no 11a rate", got)
	}
}

func TestPERProperties(t *testing.T) {
	r := Table80211a[0] // 6 Mb/s, MinSNR 6 dB
	// Calibration: PER at MinSNRdB for 1400 bytes is 50%.
	if got := PER(r, r.MinSNRdB, 1400); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("PER at threshold = %v, want 0.5", got)
	}
	// Monotone decreasing in SNR.
	f := func(rawA, rawB float64) bool {
		a := math.Mod(rawA, 40)
		b := math.Mod(rawB, 40)
		if a > b {
			a, b = b, a
		}
		return PER(r, a, 1400) >= PER(r, b, 1400)-1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
	// Longer frames fail more.
	if PER(r, 8, 2800) <= PER(r, 8, 1400) {
		t.Error("longer frame should have higher PER")
	}
	// Extremes clamp into [0, 1].
	if got := PER(r, 100, 1400); got < 0 || got > 1e-6 {
		t.Errorf("PER at huge SNR = %v", got)
	}
	if got := PER(r, -100, 1400); got < 1-1e-9 || got > 1 {
		t.Errorf("PER at tiny SNR = %v", got)
	}
	if got := PER(r, 10, 0); got != 0 {
		t.Errorf("PER of empty frame = %v", got)
	}
}

func TestDeliveryComplement(t *testing.T) {
	r := Table80211a[4]
	for _, snr := range []float64{5, 14, 20} {
		if got := DeliveryRate(r, snr, 1400) + PER(r, snr, 1400); math.Abs(got-1) > 1e-12 {
			t.Errorf("delivery + PER = %v, want 1", got)
		}
	}
}

func TestFadeModelZero(t *testing.T) {
	if !(FadeModel{}).Zero() {
		t.Error("zero-value fade model should be a no-op")
	}
	if (FadeModel{SigmaDB: 1}).Zero() {
		t.Error("sigma>0 should not be zero")
	}
	if (FadeModel{OutageProb: 0.1, OutageDepthDB: 10}).Zero() {
		t.Error("outage-only model should not be zero")
	}
	if !(FadeModel{OutageProb: 0.1}).Zero() {
		t.Error("outage with zero depth is a no-op")
	}
}

func TestExpectedDeliveryRateReducesToDeliveryRate(t *testing.T) {
	r := Table80211a[0]
	var f FadeModel
	for _, snr := range []float64{4, 6, 8, 12} {
		if got, want := f.ExpectedDeliveryRate(r, snr, 1400), DeliveryRate(r, snr, 1400); math.Abs(got-want) > 1e-12 {
			t.Errorf("zero fade expected delivery = %v, want %v", got, want)
		}
	}
}

func TestExpectedDeliveryRateSmoothsCliff(t *testing.T) {
	r := Table80211a[0]
	f := FadeModel{SigmaDB: 2.5}
	// Above the cliff fading hurts; below it helps.
	if f.ExpectedDeliveryRate(r, 10, 1400) >= DeliveryRate(r, 10, 1400) {
		t.Error("fading should reduce delivery above the cliff")
	}
	if f.ExpectedDeliveryRate(r, 4, 1400) <= DeliveryRate(r, 4, 1400) {
		t.Error("fading should raise delivery below the cliff")
	}
}

func TestExpectedDeliveryRateOutageCeiling(t *testing.T) {
	// A 54 Mb/s link at 40 dB: a 25 dB deep fade leaves 15 dB, below
	// the 24 dB requirement, so each outage frame dies — delivery
	// cannot beat 1 - p.
	r := Table80211a[7]
	f := FadeModel{SigmaDB: 2.5, OutageProb: 0.2, OutageDepthDB: 25}
	got := f.ExpectedDeliveryRate(r, 40, 1400)
	if got > 0.81 {
		t.Errorf("delivery = %v, want <= ~0.80 under 20%% outage", got)
	}
	if got < 0.78 {
		t.Errorf("delivery = %v, strong link should approach 0.80", got)
	}
	// The same outage at 6 Mb/s barely matters (40 - 25 = 15 dB is
	// still comfortably above 6 dB) — outages are only
	// rate-independent for links without 25 dB of margin.
	if got6 := f.ExpectedDeliveryRate(Table80211a[0], 40, 1400); got6 < 0.99 {
		t.Errorf("6 Mb/s delivery at 40 dB = %v, want ~1", got6)
	}
}

func TestExpectedDeliveryMonotoneInSNR(t *testing.T) {
	r := Table80211a[2]
	f := DefaultFade()
	prev := 0.0
	for snr := -5.0; snr <= 40; snr += 1 {
		got := f.ExpectedDeliveryRate(r, snr, 1400)
		if got < prev-1e-9 {
			t.Errorf("expected delivery decreased at %v dB", snr)
		}
		prev = got
	}
}

func TestWithOutageProbCutsDelivery(t *testing.T) {
	f := DefaultFade()
	top := Table80211a[7]
	light := f.ExpectedDeliveryRate(top, 35, 1400)
	heavy := f.WithOutageProb(0.5).ExpectedDeliveryRate(top, 35, 1400)
	if heavy >= light {
		t.Errorf("heavier outage should cut delivery: %v vs %v", heavy, light)
	}
}

func TestFrameKindStringAndRateTables(t *testing.T) {
	if len(TablePaperDriver) != 5 || TablePaperDriver[4].Mbps != 24 {
		t.Errorf("paper driver table wrong: %+v", TablePaperDriver)
	}
	if Table80211a[7].Mbps != 54 {
		t.Errorf("11a table top rate: %+v", Table80211a[7])
	}
}
