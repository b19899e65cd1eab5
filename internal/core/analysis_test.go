package core

import (
	"context"
	"math"
	"testing"

	"carriersense/internal/numeric"
)

func TestInefficiencyNonNegative(t *testing.T) {
	m := New(NoShadowParams())
	grid := numeric.LinSpace(5, 180, 12)
	ineff := m.EstimateInefficiency(context.Background(), 1, 60_000, 55, 55, grid)
	if ineff.HiddenTotal < 0 || ineff.ExposedTotal < 0 || ineff.TriangleTotal < 0 {
		t.Errorf("negative inefficiency: %+v", ineff)
	}
	for i, g := range ineff.HiddenGap {
		if g < 0 || ineff.ExposedGap[i] < 0 {
			t.Fatalf("negative gap at %d", i)
		}
	}
	// Gaps land on the correct side of the threshold.
	for i, d := range grid {
		if d <= 55 && ineff.HiddenGap[i] != 0 {
			t.Errorf("hidden gap on the multiplexing side at D=%v", d)
		}
		if d > 55 && ineff.ExposedGap[i] != 0 {
			t.Errorf("exposed gap on the concurrency side at D=%v", d)
		}
	}
}

func TestTriangleGrowsWithMisplacedThreshold(t *testing.T) {
	// §3.3.3: the triangle inefficiency vanishes at the crossing
	// point and grows as the threshold moves away from it.
	m := New(NoShadowParams())
	grid := numeric.LinSpace(5, 180, 12)
	dOpt := m.OptimalThresholdQuad(55)
	atOpt := m.EstimateInefficiency(context.Background(), 2, 60_000, 55, dOpt, grid)
	misplaced := m.EstimateInefficiency(context.Background(), 2, 60_000, 55, dOpt/2, grid)
	if misplaced.TriangleTotal <= atOpt.TriangleTotal {
		t.Errorf("triangle at misplaced threshold %v not above optimal %v",
			misplaced.TriangleTotal, atOpt.TriangleTotal)
	}
}

func TestShadowingExampleConsistency(t *testing.T) {
	// The §3.4 worked example: closed-form pieces and the direct MC
	// estimate must agree on order of magnitude, and the individual
	// probabilities match the analysis.
	m := New(DefaultParams())
	ex := m.EstimateShadowingExample(context.Background(), 5, 400_000, 20, 20, 40)
	if ex.PSpuriousConcurrency < 0.10 || ex.PSpuriousConcurrency > 0.22 {
		t.Errorf("P[spurious] = %v", ex.PSpuriousConcurrency)
	}
	if ex.PSmothered < 0.15 || ex.PSmothered > 0.25 {
		t.Errorf("P[smothered] = %v", ex.PSmothered)
	}
	if ex.PBadSNR < 0.015 || ex.PBadSNR > 0.06 {
		t.Errorf("closed-form P[bad] = %v, paper ballpark 4%%", ex.PBadSNR)
	}
	// MC estimate within a factor ~2 of the closed-form product (the
	// product ignores shadowing on the serving link).
	ratio := ex.PBadSNRMC.Mean / ex.PBadSNR
	if ratio < 0.4 || ratio > 2.5 {
		t.Errorf("MC/closed-form ratio = %v (MC %v, closed %v)", ratio, ex.PBadSNRMC.Mean, ex.PBadSNR)
	}
}

func TestLumpedDistanceFactor(t *testing.T) {
	m := New(DefaultParams())
	// §3.4: 14 dB at α = 3 is "a distance factor of about 3x".
	if got := m.LumpedDistanceFactor(14); math.Abs(got-2.93) > 0.05 {
		t.Errorf("14 dB factor = %v, want ~2.9", got)
	}
	// 0 dB is no factor.
	if got := m.LumpedDistanceFactor(0); got != 1 {
		t.Errorf("0 dB factor = %v", got)
	}
}
