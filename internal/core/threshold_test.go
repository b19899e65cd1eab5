package core

import (
	"context"
	"math"
	"testing"
	"testing/quick"
)

func TestOptimalThresholdQuadPaperValues(t *testing.T) {
	// §3.3.3: "Rmax = 20 corresponds to an optimal threshold about
	// Dthresh ≈ 40, and Rmax = 120 corresponds to Dthresh ≈ 75" for
	// α = 3, σ = 0.
	m := New(NoShadowParams())
	d20 := m.OptimalThresholdQuad(20)
	if d20 < 35 || d20 > 46 {
		t.Errorf("Dopt(20) = %v, paper says ~40", d20)
	}
	d120 := m.OptimalThresholdQuad(120)
	if d120 < 65 || d120 > 85 {
		t.Errorf("Dopt(120) = %v, paper says ~75", d120)
	}
}

func TestOptimalThresholdCrossingProperty(t *testing.T) {
	// At the solved threshold the two curves actually cross.
	m := New(NoShadowParams())
	for _, rmax := range []float64{20, 55, 120} {
		d := m.OptimalThresholdQuad(rmax)
		mux := m.AvgMuxQuad(rmax)
		conc := m.AvgConcQuad(rmax, d)
		if math.Abs(conc-mux)/mux > 0.01 {
			t.Errorf("Rmax=%v: curves don't cross at Dopt=%v (conc %v, mux %v)", rmax, d, conc, mux)
		}
	}
}

func TestOptimalThresholdMCAgreesWithQuad(t *testing.T) {
	m := New(NoShadowParams())
	dq := m.OptimalThresholdQuad(40)
	dmc := m.OptimalThresholdMC(context.Background(), 3, 120_000, 40)
	if math.Abs(dq-dmc)/dq > 0.08 {
		t.Errorf("quad %v vs MC %v", dq, dmc)
	}
}

func TestShortRangeThresholdAsymptote(t *testing.T) {
	// Footnote 13: Dthresh ≈ e^(-1/4)·√Rmax·N^(-1/2α) in the short
	// range limit. The solver should approach the closed form as
	// Rmax shrinks.
	m := New(NoShadowParams())
	for _, rmax := range []float64{5, 10, 20} {
		got := m.OptimalThresholdQuad(rmax)
		want := m.ShortRangeThresholdAsymptote(rmax)
		if rel := math.Abs(got-want) / want; rel > 0.15 {
			t.Errorf("Rmax=%v: solver %v vs asymptote %v (rel %v)", rmax, got, want, rel)
		}
	}
	// The asymptote's paper example: Rmax=20, α=3 gives ≈42 ≈ the
	// paper's quoted 40.
	want := m.ShortRangeThresholdAsymptote(20)
	if want < 38 || want > 46 {
		t.Errorf("asymptote at 20 = %v, want ~42", want)
	}
}

func TestAsymptoteScaling(t *testing.T) {
	// √Rmax scaling of the closed form.
	m := New(NoShadowParams())
	r1 := m.ShortRangeThresholdAsymptote(10)
	r4 := m.ShortRangeThresholdAsymptote(40)
	if math.Abs(r4/r1-2) > 1e-9 {
		t.Errorf("asymptote should scale as sqrt(Rmax): ratio %v", r4/r1)
	}
}

func TestClassify(t *testing.T) {
	cases := []struct {
		rmax, dOpt float64
		want       Regime
	}{
		{20, 50, RegimeShortRange},   // dOpt > 2 Rmax
		{40, 60, RegimeIntermediate}, // Rmax < dOpt < 2 Rmax
		{120, 70, RegimeLongRange},   // dOpt < Rmax
	}
	for _, c := range cases {
		if got := Classify(c.rmax, c.dOpt); got != c.want {
			t.Errorf("Classify(%v, %v) = %v, want %v", c.rmax, c.dOpt, got, c.want)
		}
	}
}

func TestRegimeBoundariesPaperValues(t *testing.T) {
	// §3.3.4: for α ≈ 3, the intermediate band is roughly
	// 18 < Rmax < 60, i.e. Rmax=10 is short range and Rmax=120 long
	// range. (With σ=0 the quadrature solver reproduces this.)
	m := New(NoShadowParams())
	if r := Classify(10, m.OptimalThresholdQuad(10)); r != RegimeShortRange {
		t.Errorf("Rmax=10 classified %v", r)
	}
	if r := Classify(40, m.OptimalThresholdQuad(40)); r != RegimeIntermediate {
		t.Errorf("Rmax=40 classified %v", r)
	}
	if r := Classify(120, m.OptimalThresholdQuad(120)); r != RegimeLongRange {
		t.Errorf("Rmax=120 classified %v", r)
	}
}

func TestEdgeSNR(t *testing.T) {
	m := New(NoShadowParams())
	// §3.2.2: r = 20 gives "roughly 26 dBm SNR"; r = 120 "just shy of
	// 3 dB".
	if got := m.EdgeSNRdB(20); math.Abs(got-26) > 1 {
		t.Errorf("edge SNR at 20 = %v, want ~26", got)
	}
	if got := m.EdgeSNRdB(120); got < 2 || got > 4 {
		t.Errorf("edge SNR at 120 = %v, want ~3", got)
	}
}

func TestThresholdCurveRegimeProgression(t *testing.T) {
	m := New(NoShadowParams())
	pts := m.ThresholdCurve(context.Background(), 1, 0, []float64{8, 40, 150})
	if pts[0].Regime != RegimeShortRange {
		t.Errorf("Rmax=8 regime %v", pts[0].Regime)
	}
	if pts[2].Regime != RegimeLongRange {
		t.Errorf("Rmax=150 regime %v", pts[2].Regime)
	}
	// DOptAlpha3 equals DOpt when α is already 3.
	for _, pt := range pts {
		if math.Abs(pt.DOpt-pt.DOptAlpha3) > 1e-6*pt.DOpt {
			t.Errorf("alpha=3 equivalence broken: %v vs %v", pt.DOpt, pt.DOptAlpha3)
		}
	}
}

func TestRecommendFactoryThreshold(t *testing.T) {
	// §3.3.3's worked example: across Rmax 20..120 the compromise
	// lands near 55.
	m := New(NoShadowParams())
	got := m.RecommendFactoryThreshold(context.Background(), 2, 0, 20, 120)
	if got < 48 || got > 64 {
		t.Errorf("factory threshold = %v, paper says ~55", got)
	}
}

func TestSpuriousConcurrencyProbability(t *testing.T) {
	m := New(DefaultParams()) // σ = 8
	// At D = Dthresh the sensing draw is symmetric: exactly 1/2.
	if got := m.SpuriousConcurrencyProbability(55, 55); math.Abs(got-0.5) > 1e-9 {
		t.Errorf("P at threshold = %v, want 0.5", got)
	}
	// §3.4's example: D=20, Dthresh=40 — the exact value under σ=8 is
	// Φ(10·3·log10(0.5)/8) = Φ(-1.129) ≈ 0.13 (the paper rounds the
	// story to "about 20%").
	got := m.SpuriousConcurrencyProbability(20, 40)
	if got < 0.10 || got > 0.22 {
		t.Errorf("spurious concurrency = %v, want ~0.13 (paper: ~0.2)", got)
	}
	// Monotone in D.
	f := func(rawA, rawB float64) bool {
		a := 1 + math.Abs(math.Mod(rawA, 100))
		b := 1 + math.Abs(math.Mod(rawB, 100))
		if a > b {
			a, b = b, a
		}
		return m.SpuriousConcurrencyProbability(a, 40) <= m.SpuriousConcurrencyProbability(b, 40)+1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSpuriousProbabilityNoShadowing(t *testing.T) {
	m := New(NoShadowParams())
	if got := m.SpuriousConcurrencyProbability(20, 40); got != 0 {
		t.Errorf("sigma=0 below threshold = %v, want 0", got)
	}
	if got := m.SpuriousConcurrencyProbability(80, 40); got != 1 {
		t.Errorf("sigma=0 beyond threshold = %v, want 1", got)
	}
}

func TestSNREstimateUncertainty(t *testing.T) {
	m := New(DefaultParams())
	// §3.4: σ√3 ≈ 14 dB at σ = 8.
	got := m.SNREstimateUncertaintyDB()
	if math.Abs(got-8*math.Sqrt(3)) > 1e-12 {
		t.Errorf("uncertainty = %v", got)
	}
	if got < 13.5 || got > 14.5 {
		t.Errorf("uncertainty = %v, paper says ~14 dB", got)
	}
	// And its distance equivalent ~3x at α = 3.
	if f := m.LumpedDistanceFactor(got); f < 2.5 || f > 3.5 {
		t.Errorf("distance factor = %v, paper says ~3x", f)
	}
}

func TestOptimalThresholdShadowedShiftsLeft(t *testing.T) {
	// §3.4: shadowing reduces the concurrency-multiplexing gap at long
	// range and shifts optimal thresholds leftward (visible in the
	// D=120 frame of Figure 9).
	quad := New(NoShadowParams()).OptimalThresholdQuad(120)
	shadowed := New(DefaultParams()).OptimalThresholdMC(context.Background(), 4, 150_000, 120)
	if shadowed >= quad {
		t.Errorf("shadowed threshold %v not left of sigma=0 threshold %v", shadowed, quad)
	}
}

func TestRegimeString(t *testing.T) {
	if RegimeShortRange.String() != "short-range" ||
		RegimeIntermediate.String() != "intermediate" ||
		RegimeLongRange.String() != "long-range" {
		t.Error("regime names wrong")
	}
	if Regime(99).String() != "unknown" {
		t.Error("unknown regime name")
	}
}
