package geometry

import (
	"math"
	"testing"
	"testing/quick"

	"carriersense/internal/rng"
)

func TestPolarRoundTrip(t *testing.T) {
	f := func(rawR, rawTheta float64) bool {
		r := math.Abs(math.Mod(rawR, 100))
		theta := math.Mod(rawTheta, 2*math.Pi)
		p := Polar(r, theta)
		return math.Abs(p.Norm()-r) < 1e-9*math.Max(r, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPointArithmetic(t *testing.T) {
	a := Point{X: 1, Y: 2}
	b := Point{X: -3, Y: 4}
	if got := a.Add(b); got != (Point{X: -2, Y: 6}) {
		t.Errorf("Add = %v", got)
	}
	if got := a.Scale(3); got != (Point{X: 3, Y: 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Dist(b); math.Abs(got-math.Hypot(4, 2)) > 1e-12 {
		t.Errorf("Dist = %v", got)
	}
}

func TestUniformInDiscBoundsAndMeanRadius(t *testing.T) {
	src := rng.New(1)
	const radius = 10.0
	const n = 200_000
	var sumR float64
	for i := 0; i < n; i++ {
		p := UniformInDisc(src, radius)
		r := p.Norm()
		if r > radius {
			t.Fatalf("point outside disc: %v", r)
		}
		sumR += r
	}
	// Uniform over area ⇒ E[r] = 2R/3, the key property separating
	// area-uniform from radius-uniform sampling.
	want := 2 * radius / 3
	if got := sumR / n; math.Abs(got-want) > 0.02*radius {
		t.Errorf("mean radius = %v, want %v", got, want)
	}
}

func TestUniformInDiscQuadrantBalance(t *testing.T) {
	src := rng.New(2)
	counts := [4]int{}
	const n = 100_000
	for i := 0; i < n; i++ {
		p := UniformInDisc(src, 5)
		idx := 0
		if p.X < 0 {
			idx |= 1
		}
		if p.Y < 0 {
			idx |= 2
		}
		counts[idx]++
	}
	for q, c := range counts {
		if math.Abs(float64(c)/n-0.25) > 0.01 {
			t.Errorf("quadrant %d fraction %v, want 0.25", q, float64(c)/n)
		}
	}
}

func TestFractionCloserTo(t *testing.T) {
	// Interferer far outside the disc: nobody is closer to it.
	if got := FractionCloserTo(Point{X: -1000, Y: 0}, 10); got > 0.001 {
		t.Errorf("far interferer fraction = %v, want ~0", got)
	}
	// Interferer exactly at the disc edge on the -x axis: the
	// bisector x = -rmax/2 cuts off a lens of about 20% of the disc.
	got := FractionCloserTo(Point{X: -10, Y: 0}, 10)
	if got < 0.15 || got > 0.25 {
		t.Errorf("edge interferer fraction = %v, want ~0.2", got)
	}
	// The paper's §3.4 example: interferer at D = 20 with R_max = 20
	// — "approximately the fraction of the R_max disc's area closer
	// to D = 20 than to the sender", which it calls about 20%.
	got = FractionCloserTo(Point{X: -20, Y: 0}, 20)
	if got < 0.15 || got > 0.25 {
		t.Errorf("section 3.4 fraction = %v, want ~0.2", got)
	}
}

func TestFractionCloserToMonotoneInDistance(t *testing.T) {
	prev := 1.0
	for _, d := range []float64{5, 10, 20, 40} {
		got := FractionCloserTo(Point{X: -d, Y: 0}, 10)
		if got > prev+1e-9 {
			t.Errorf("fraction should shrink as interferer recedes: d=%v got %v > prev %v", d, got, prev)
		}
		prev = got
	}
}
