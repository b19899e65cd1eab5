package propagation

import (
	"math"
	"testing"
)

func TestKnifeEdgeDiffraction(t *testing.T) {
	// No obstruction (v <= -1): no loss.
	if got := KnifeEdgeDiffractionLossDB(-2); got != 0 {
		t.Errorf("loss at v=-2 = %v, want 0", got)
	}
	// Grazing incidence (v = 0): the classic 6 dB.
	if got := KnifeEdgeDiffractionLossDB(0); math.Abs(got-6.02) > 0.1 {
		t.Errorf("loss at v=0 = %v, want ~6", got)
	}
	// Monotone increasing in v, up to the ~0.5 dB seams of Lee's
	// piecewise approximation.
	prev := -1.0
	for v := -1.0; v < 5; v += 0.1 {
		got := KnifeEdgeDiffractionLossDB(v)
		if got < prev-0.5 {
			t.Errorf("diffraction loss dipped at v=%v: %v < %v", v, got, prev)
		}
		prev = got
	}
	// The §3.4 example: barrier ~5 m from each endpoint, 2.4 GHz,
	// strongly obstructed — loss should land near 30 dB for v ≈ 7.
	v := FresnelV(5, 5, 5, 0.125)
	loss := KnifeEdgeDiffractionLossDB(v)
	if loss < 25 || loss > 40 {
		t.Errorf("section 3.4 barrier loss = %v dB, want ~30", loss)
	}
}

func TestFresnelV(t *testing.T) {
	// Higher obstruction -> larger v.
	if FresnelV(1, 5, 5, 0.125) >= FresnelV(3, 5, 5, 0.125) {
		t.Error("v should grow with obstruction height")
	}
	// Zero height -> zero v.
	if got := FresnelV(0, 5, 5, 0.125); got != 0 {
		t.Errorf("v at h=0 = %v", got)
	}
}
