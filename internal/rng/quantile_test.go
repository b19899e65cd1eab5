package rng

import (
	"math"
	"testing"
)

// legacyNormalQuantile is NormalQuantile as it was before its
// coefficients moved to package level: the bit-for-bit reference
// the hoisted form must reproduce, since every normal a sobol or
// stratified stream draws goes through it.
func legacyNormalQuantile(p float64) float64 {
	if math.IsNaN(p) || p <= 0 || p >= 1 {
		switch {
		case p == 0:
			return math.Inf(-1)
		case p == 1:
			return math.Inf(1)
		}
		return math.NaN()
	}
	x := legacyBSM(p)
	pdf := math.Exp(-x*x/2) / math.Sqrt(2*math.Pi)
	if pdf > 0 {
		x -= (NormalCDF(x) - p) / pdf
	}
	return x
}

func legacyBSM(p float64) float64 {
	a := [4]float64{2.50662823884, -18.61500062529, 41.39119773534, -25.44106049637}
	b := [4]float64{-8.47351093090, 23.08336743743, -21.06224101826, 3.13082909833}
	c := [9]float64{
		0.3374754822726147, 0.9761690190917186, 0.1607979714918209,
		0.0276438810333863, 0.0038405729373609, 0.0003951896511919,
		0.0000321767881768, 0.0000002888167364, 0.0000003960315187,
	}
	y := p - 0.5
	if math.Abs(y) < 0.42 {
		r := y * y
		num := y * (((a[3]*r+a[2])*r+a[1])*r + a[0])
		den := (((b[3]*r+b[2])*r+b[1])*r+b[0])*r + 1
		return num / den
	}
	r := p
	if y > 0 {
		r = 1 - p
	}
	r = math.Log(-math.Log(r))
	x := c[0]
	pow := 1.0
	for i := 1; i < 9; i++ {
		pow *= r
		x += c[i] * pow
	}
	if y < 0 {
		x = -x
	}
	return x
}

func TestNormalQuantileBitEqualToLegacy(t *testing.T) {
	check := func(p float64) {
		t.Helper()
		got, want := NormalQuantile(p), legacyNormalQuantile(p)
		if math.Float64bits(got) != math.Float64bits(want) && !(math.IsNaN(got) && math.IsNaN(want)) {
			t.Fatalf("NormalQuantile(%v) = %v, legacy %v", p, got, want)
		}
	}
	src := New(20261017)
	for range 2_000_000 {
		check(src.Float64())
	}
	// Both tails to within 1e-12 of 0 and 1, the branch edges at
	// |p - 0.5| = 0.42, and the out-of-range inputs.
	for _, edge := range []float64{0, 1, 0.08, 0.92, 0.5} {
		p := edge
		for range 1000 {
			p = math.Nextafter(p, math.Inf(-1))
			check(p)
		}
		p = edge
		for range 1000 {
			p = math.Nextafter(p, math.Inf(1))
			check(p)
		}
	}
	for _, p := range []float64{1e-12, 1 - 1e-12, 5e-13, 1 - 5e-13, 1e-300, -1, 2, math.NaN(), math.Inf(1), math.Inf(-1)} {
		check(p)
	}
}

func BenchmarkNormalQuantile(b *testing.B) {
	src := New(1)
	ps := make([]float64, 1024)
	for i := range ps {
		ps[i] = src.Float64()
	}
	sum := 0.0
	for i := 0; i < b.N; i++ {
		sum += NormalQuantile(ps[i%len(ps)])
	}
	if math.IsNaN(sum) {
		b.Fatal("NaN")
	}
}
