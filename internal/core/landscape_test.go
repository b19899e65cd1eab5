package core

import (
	"math"
	"testing"
)

// valueAt returns the value of the grid cell holding the plane point
// (x, y), which must lie inside the raster.
func valueAt(g *Grid, x, y float64) float64 {
	col := int((x + g.Extent) / (2 * g.Extent) * float64(g.N))
	row := int((g.Extent - y) / (2 * g.Extent) * float64(g.N))
	return g.Values[row][col]
}

func TestLandscapePeaksAtSender(t *testing.T) {
	m := New(NoShadowParams())
	g := m.Landscape(PolicySingle, 0, 100, 41) // odd cell count centers the sender
	center := g.Values[20][20]
	for r, row := range g.Values {
		for c, v := range row {
			if v > center {
				t.Fatalf("cell (%d,%d)=%v exceeds center %v", r, c, v, center)
			}
		}
	}
}

func TestLandscapeMultiplexingIsHalfSingle(t *testing.T) {
	m := New(NoShadowParams())
	single := m.Landscape(PolicySingle, 0, 100, 21)
	mux := m.Landscape(PolicyMultiplexing, 0, 100, 21)
	for r := range single.Values {
		for c := range single.Values[r] {
			if math.Abs(mux.Values[r][c]-single.Values[r][c]/2) > 1e-12 {
				t.Fatalf("mux != single/2 at (%d,%d)", r, c)
			}
		}
	}
}

func TestLandscapeConcurrencyHole(t *testing.T) {
	// The "hole" around the interferer: capacity near (-D, 0) is far
	// below the mirror position (+D, 0).
	m := New(NoShadowParams())
	g := m.Landscape(PolicyConcurrent, 55, 130, 130)
	nearInterferer := valueAt(g, -55, 0)
	mirror := valueAt(g, 55, 0)
	if nearInterferer > mirror/3 {
		t.Errorf("no interferer hole: near %v vs mirror %v", nearInterferer, mirror)
	}
}

func TestLandscapeConcurrencyBelowSingle(t *testing.T) {
	m := New(NoShadowParams())
	single := m.Landscape(PolicySingle, 0, 100, 21)
	conc := m.Landscape(PolicyConcurrent, 40, 100, 21)
	for r := range single.Values {
		for c := range single.Values[r] {
			if conc.Values[r][c] > single.Values[r][c]+1e-12 {
				t.Fatalf("concurrency exceeds single at (%d,%d)", r, c)
			}
		}
	}
}

func TestLandscapeDegradesAsInterfererApproaches(t *testing.T) {
	// "Capacity throughout the landscape trends downward as the
	// interferer approaches" — compare total capacity across D.
	m := New(NoShadowParams())
	total := func(d float64) float64 {
		g := m.Landscape(PolicyConcurrent, d, 100, 31)
		sum := 0.0
		for _, row := range g.Values {
			for _, v := range row {
				sum += v
			}
		}
		return sum
	}
	t120, t55, t20 := total(120), total(55), total(20)
	if !(t120 > t55 && t55 > t20) {
		t.Errorf("capacity totals not decreasing: %v, %v, %v", t120, t55, t20)
	}
}

func TestPreferenceMapPaperShares(t *testing.T) {
	// Figure 3's headline claims: for D=20 multiplexing is optimal for
	// nearly everyone within Rmax=100; for D=120 concurrency dominates
	// up to Rmax~50; for D=55 receivers split near the middle.
	m := New(NoShadowParams())
	g20 := m.PreferenceMap(20, 130, 90)
	conc, mux, starved := g20.PreferenceShares(100)
	if mux+starved < 0.9 {
		t.Errorf("D=20: mux+starved share %v, want >0.9", mux+starved)
	}
	g55 := m.PreferenceMap(55, 130, 90)
	conc, mux, starved = g55.PreferenceShares(100)
	if conc < 0.3 || conc > 0.6 {
		t.Errorf("D=55: concurrency share %v, want near half", conc)
	}
	g120 := m.PreferenceMap(120, 130, 90)
	conc, _, _ = g120.PreferenceShares(50)
	if conc < 0.9 {
		t.Errorf("D=120 within Rmax=50: concurrency share %v, want ~1", conc)
	}
}

func TestPreferenceStarvedNearInterferer(t *testing.T) {
	m := New(NoShadowParams())
	g := m.PreferenceMap(55, 130, 130)
	// A receiver essentially on top of the interferer is starved.
	if got := Preference(int(valueAt(g, -55, 0))); got != PrefStarved {
		t.Errorf("receiver at interferer classified %v, want starved", got)
	}
	// A receiver hugging the sender prefers concurrency.
	if got := Preference(int(valueAt(g, 1, 1))); got != PrefConcurrency {
		t.Errorf("receiver at sender classified %v, want concurrency", got)
	}
}

func TestPreferenceSharesEmpty(t *testing.T) {
	g := &Grid{Extent: 10, N: 4, Values: [][]float64{{0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}, {0, 0, 0, 0}}}
	conc, mux, starved := g.PreferenceShares(0.1) // radius smaller than any cell center
	if conc != 0 || mux != 0 || starved != 0 {
		t.Errorf("empty shares = %v %v %v", conc, mux, starved)
	}
}

func TestPolicyAndPreferenceStrings(t *testing.T) {
	if PolicySingle.String() != "no-competition" || PolicyConcurrent.String() != "concurrency" ||
		PolicyMultiplexing.String() != "multiplexing" || Policy(9).String() != "unknown" {
		t.Error("policy names")
	}
	if PrefConcurrency.String() != "concurrency" || PrefMultiplexing.String() != "multiplexing" ||
		PrefStarved.String() != "starved" || Preference(9).String() != "unknown" {
		t.Error("preference names")
	}
}
