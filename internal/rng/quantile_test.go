package rng

import (
	"math"
	"testing"
)

// legacyNormalQuantile is the quantile NormalQuantile replaced: a
// Beasley-Springer-Moro approximation refined by one Newton step
// against NormalCDF, good to about 1e-9. It is kept as the reference
// for TestNormalQuantileULPDrops.
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

// quantileResidual is |Φ(Q(p)) − p|, the error of Q as an inverse of
// NormalCDF.
func quantileResidual(p float64) float64 {
	return math.Abs(NormalCDF(NormalQuantile(p)) - p)
}

func TestNormalQuantileTailAccuracy(t *testing.T) {
	// Relative residual in the lower tail, from the clamp bound up,
	// log-spaced. Φ is relatively accurate there, so this measures the
	// quantile, and both tail branches (r ≤ 5 and r > 5) are crossed.
	worst, at := 0.0, 0.0
	for k := 0; k <= 4096; k++ {
		p := math.Exp2(-53 + 43*float64(k)/4096)
		if r := quantileResidual(p) / p; r > worst {
			worst, at = r, p
		}
	}
	t.Logf("|Φ(Q(p)) − p|/p ≤ %.2g on [2^-53, 2^-10]", worst)
	if worst > 1e-13 {
		t.Errorf("|Φ(Q(p)) − p|/p reaches %v at p = %v, want ≤ 1e-13 on [2^-53, 2^-10]", worst, at)
	}
}

func TestNormalQuantileAntisymmetric(t *testing.T) {
	// On a dyadic grid 1 − p is exact, and so must be the symmetry.
	ps := make([]float64, 0, 1<<20)
	for k := 1; k < 1<<20; k++ {
		ps = append(ps, float64(k)/(1<<20))
	}
	for e := 21; e <= 53; e++ {
		ps = append(ps, math.Exp2(-float64(e)))
	}
	for _, p := range ps {
		if a, b := NormalQuantile(1-p), -NormalQuantile(p); a != b {
			t.Fatalf("Q(1−p) = %v, −Q(p) = %v at p = %v", a, b, p)
		}
	}
}

func TestNormalQuantileClampBounds(t *testing.T) {
	lo, hi := NormalQuantile(minQuantileU), NormalQuantile(maxQuantileU)
	if math.IsInf(lo, 0) || math.IsNaN(lo) || lo > -8 || hi != -lo {
		t.Errorf("Q(2^-53) = %v, Q(1−2^-53) = %v: want finite, near ∓8.13, antisymmetric", lo, hi)
	}
	// A uniform hook at 0 or 1 (a mirrored stream's edge) draws the
	// clamped quantile, not an infinity.
	for _, u := range []float64{0, 1} {
		got := WithUniforms(func() float64 { return u }).Normal(0, 1)
		want := lo
		if u == 1 {
			want = hi
		}
		if got != want {
			t.Errorf("Normal under a hook at %v = %v, want the clamp bound's %v", u, got, want)
		}
	}
}

func TestNormalQuantileMonotone(t *testing.T) {
	increasing := func(name string, ps []float64) {
		t.Helper()
		prev := NormalQuantile(ps[0])
		for _, p := range ps[1:] {
			x := NormalQuantile(p)
			if !(x > prev) {
				t.Fatalf("%s: Q(%v) = %v does not exceed the previous grid point's %v", name, p, x, prev)
			}
			prev = x
		}
	}
	const n = 1 << 22
	grid := make([]float64, n)
	for k := range grid {
		grid[k] = (float64(k) + 0.5) / n
	}
	increasing("2^22 grid", grid)
	// 1e-9 steps across the central/tail branch edges and away from
	// the clamp bounds, and relative 1e-9 steps across the two tail
	// branches' edge at √(−log p) = 5.
	span := func(from, step float64) []float64 {
		ps := make([]float64, 2001)
		for k := range ps {
			ps[k] = from + float64(k)*step
		}
		return ps
	}
	increasing("p = 0.075", span(0.075-1e-6, 1e-9))
	increasing("p = 0.925", span(0.925-1e-6, 1e-9))
	increasing("lower clamp", span(minQuantileU, 1e-9))
	increasing("upper clamp", span(maxQuantileU-2e-6, 1e-9))
	edge := math.Exp(-25)
	increasing("tail split", span(edge*(1-1e-6), edge*1e-9))
}

// TestNormalQuantileULPDrops counts one-ulp decreases over runs of
// consecutive doubles. Neither AS241 nor the BSM-plus-Newton form is
// monotone at ulp level; AS241 must not be worse than the form it
// replaced.
func TestNormalQuantileULPDrops(t *testing.T) {
	drops := func(q func(float64) float64, from float64) int {
		n := 0
		p := from
		prev := q(p)
		for range 200_000 {
			p = math.Nextafter(p, 1)
			x := q(p)
			if x < prev {
				n++
			}
			prev = x
		}
		return n
	}
	for _, from := range []float64{0.075 - 1e-11, 0.3} {
		got, legacy := drops(NormalQuantile, from), drops(legacyNormalQuantile, from)
		t.Logf("from %v: %d one-ulp drops, legacy %d", from, got, legacy)
		if got > legacy {
			t.Errorf("from %v: %d one-ulp drops, more than the legacy form's %d", from, got, legacy)
		}
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
