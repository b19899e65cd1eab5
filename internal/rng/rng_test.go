package rng

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, b := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("%d/100 identical draws across seeds", same)
	}
}

func TestSplitReproducible(t *testing.T) {
	a, b := New(7), New(7)
	sa, sb := a.Split(), b.Split()
	for i := 0; i < 100; i++ {
		if sa.Uint64() != sb.Uint64() {
			t.Fatalf("split streams diverged at draw %d", i)
		}
	}
}

// TestSplitNMatchesSplit pins SplitN to the streams of n successive
// Split calls, for a PCG parent and for a uniform-hooked parent, and
// checks that the parent ends in the same state either way.
func TestSplitNMatchesSplit(t *testing.T) {
	parents := map[string]func() *Source{
		"pcg": func() *Source { return New(21) },
		"uniforms": func() *Source {
			u := New(22)
			return WithUniforms(u.Float64)
		},
	}
	for name, parent := range parents {
		a, b := parent(), parent()
		for _, n := range []int{0, 1, 2, 7} {
			got := a.SplitN(n)
			if len(got) != n {
				t.Fatalf("%s: SplitN(%d) returned %d sources", name, n, len(got))
			}
			for i, child := range got {
				want := b.Split()
				for d := 0; d < 50; d++ {
					if g, w := child.Uint64(), want.Uint64(); g != w {
						t.Fatalf("%s: SplitN(%d)[%d] draw %d = %x, Split gives %x", name, n, i, d, g, w)
					}
				}
			}
		}
		if a.Uint64() != b.Uint64() {
			t.Errorf("%s: parent state differs after SplitN and Split", name)
		}
	}
}

// TestSplitNStateOnDisjointLines checks the layout SplitN exists for:
// no two children's generator state shares a 64-byte cache line.
func TestSplitNStateOnDisjointLines(t *testing.T) {
	const line = 64
	srcs := New(23).SplitN(9)
	for i := range srcs {
		for j := i + 1; j < len(srcs); j++ {
			ai, aj := uintptr(unsafe.Pointer(&srcs[i].pcg)), uintptr(unsafe.Pointer(&srcs[j].pcg))
			size := unsafe.Sizeof(srcs[i].pcg)
			firstI, lastI := ai/line, (ai+size-1)/line
			firstJ, lastJ := aj/line, (aj+size-1)/line
			if firstI <= lastJ && firstJ <= lastI {
				t.Errorf("children %d and %d share a cache line: state at %#x and %#x", i, j, ai, aj)
			}
		}
	}
}

func TestUniformRange(t *testing.T) {
	src := New(3)
	for i := 0; i < 1000; i++ {
		v := src.Uniform(-2, 5)
		if v < -2 || v >= 5 {
			t.Fatalf("Uniform(-2,5) = %v out of range", v)
		}
	}
}

func TestIntNRange(t *testing.T) {
	src := New(4)
	seen := make(map[int]bool)
	for i := 0; i < 1000; i++ {
		v := src.IntN(7)
		if v < 0 || v >= 7 {
			t.Fatalf("IntN(7) = %d out of range", v)
		}
		seen[v] = true
	}
	if len(seen) != 7 {
		t.Errorf("IntN(7) hit %d distinct values, want 7", len(seen))
	}
}

// moments estimates mean and variance of n draws.
func moments(n int, draw func() float64) (mean, variance float64) {
	var sum, sum2 float64
	for i := 0; i < n; i++ {
		x := draw()
		sum += x
		sum2 += x * x
	}
	mean = sum / float64(n)
	variance = sum2/float64(n) - mean*mean
	return mean, variance
}

func TestNormalMoments(t *testing.T) {
	src := New(5)
	mean, variance := moments(200_000, func() float64 { return src.Normal(3, 2) })
	if math.Abs(mean-3) > 0.03 {
		t.Errorf("normal mean = %v, want 3", mean)
	}
	if math.Abs(math.Sqrt(variance)-2) > 0.03 {
		t.Errorf("normal stddev = %v, want 2", math.Sqrt(variance))
	}
}

func TestLognormalDBMoments(t *testing.T) {
	src := New(6)
	const sigma = 8.0
	// Median must be 1 (half the draws below 1) and the mean must be
	// exp(k²/2) with k = ln10/10·σ — the linear-domain surplus §3.4
	// leans on.
	n := 200_000
	below := 0
	var sum float64
	for i := 0; i < n; i++ {
		v := src.LognormalDB(sigma)
		if v < 1 {
			below++
		}
		sum += v
	}
	if frac := float64(below) / float64(n); math.Abs(frac-0.5) > 0.01 {
		t.Errorf("P[L<1] = %v, want 0.5", frac)
	}
	k := math.Ln10 / 10 * sigma
	want := math.Exp(k * k / 2)
	if got := sum / float64(n); math.Abs(got-want)/want > 0.05 {
		t.Errorf("E[L] = %v, want %v", got, want)
	}
}

func TestLognormalZeroSigma(t *testing.T) {
	src := New(7)
	for i := 0; i < 10; i++ {
		if v := src.LognormalDB(0); v != 1 {
			t.Fatalf("LognormalDB(0) = %v, want 1", v)
		}
	}
}

func TestExpMean(t *testing.T) {
	src := New(8)
	mean, _ := moments(200_000, func() float64 { return src.Exp(3) })
	if math.Abs(mean-3)/3 > 0.02 {
		t.Errorf("exp mean = %v, want 3", mean)
	}
}

func TestRayleighMean(t *testing.T) {
	src := New(9)
	const sigma = 2.0
	mean, _ := moments(200_000, func() float64 { return src.Rayleigh(sigma) })
	want := sigma * math.Sqrt(math.Pi/2)
	if math.Abs(mean-want)/want > 0.02 {
		t.Errorf("rayleigh mean = %v, want %v", mean, want)
	}
}

func TestRicianReducesToRayleigh(t *testing.T) {
	src := New(10)
	mean, _ := moments(100_000, func() float64 { return src.Rician(0, 1) })
	want := math.Sqrt(math.Pi / 2)
	if math.Abs(mean-want)/want > 0.03 {
		t.Errorf("rician(0,1) mean = %v, want rayleigh %v", mean, want)
	}
}

func TestRicianPowerKUnitMean(t *testing.T) {
	src := New(11)
	for _, k := range []float64{0, 1, 5, 20} {
		mean, _ := moments(200_000, func() float64 { return src.RicianPowerK(k) })
		if math.Abs(mean-1) > 0.03 {
			t.Errorf("RicianPowerK(%v) mean = %v, want 1", k, mean)
		}
	}
}

func TestRicianPowerVarianceShrinksWithK(t *testing.T) {
	src := New(12)
	_, v0 := moments(100_000, func() float64 { return src.RicianPowerK(0) })
	_, v20 := moments(100_000, func() float64 { return src.RicianPowerK(20) })
	if v20 >= v0 {
		t.Errorf("variance should shrink with K: K=0 %v, K=20 %v", v0, v20)
	}
}

func TestWidebandFadeAveraging(t *testing.T) {
	src := New(13)
	mean, v48 := moments(100_000, func() float64 { return src.WidebandFadePower(48) })
	if math.Abs(mean-1) > 0.02 {
		t.Errorf("wideband fade mean = %v, want 1", mean)
	}
	_, v1 := moments(100_000, func() float64 { return src.WidebandFadePower(1) })
	// Averaging 48 subchannels cuts variance by ~48x — the appendix's
	// "reduces to the equivalent of a few dB variation".
	if v48 > v1/20 {
		t.Errorf("wideband variance %v not well below narrowband %v", v48, v1)
	}
}

// zigguratTail is the ziggurat's base-strip edge (math/rand/v2's rn):
// a standard normal draw beyond it came from the tail sampler, which
// consumes extra words.
const zigguratTail = 3.442619855899

// TestSkipNormalAdvancesLikeNormal checks that SkipNormal leaves a
// source exactly where Normal leaves it: on a plain source across
// enough draws to take the ziggurat's rejection and tail paths, and on
// a uniform-hooked source uniform for uniform.
func TestSkipNormalAdvancesLikeNormal(t *testing.T) {
	const n = 200_000
	a, b := New(11), New(11)
	tail := 0
	for i := 0; i < n; i++ {
		if math.Abs(a.Normal(0, 1)) > zigguratTail {
			tail++
		}
		b.SkipNormal()
		if x, y := a.Uint64(), b.Uint64(); x != y {
			t.Fatalf("plain: after draw %d the next word is %#x after Normal, %#x after SkipNormal", i, x, y)
		}
	}
	if tail == 0 {
		t.Fatalf("plain: none of %d draws reached the ziggurat tail", n)
	}

	var usedA, usedB int
	hooked := func(used *int) *Source {
		u := New(11)
		return WithUniforms(func() float64 { *used++; return u.Float64() })
	}
	ha, hb := hooked(&usedA), hooked(&usedB)
	for i := 0; i < 1000; i++ {
		ha.Normal(0, 1)
		hb.SkipNormal()
		if usedA != usedB {
			t.Fatalf("hooked: after draw %d Normal used %d uniforms, SkipNormal %d", i, usedA, usedB)
		}
	}
	if ha.Float64() != hb.Float64() {
		t.Fatal("hooked: next uniform differs after Normal and SkipNormal")
	}
}

func TestNormalCDFKnownValues(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{0, 0.5},
		{1, 0.8413447},
		{-1, 0.1586553},
		{2, 0.9772499},
		{-3, 0.0013499},
	}
	for _, c := range cases {
		if got := NormalCDF(c.x); math.Abs(got-c.want) > 1e-6 {
			t.Errorf("Phi(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestNormalQuantileInverseProperty(t *testing.T) {
	f := func(raw float64) bool {
		p := 0.001 + 0.998*math.Abs(math.Mod(raw, 1))
		x := NormalQuantile(p)
		return math.Abs(NormalCDF(x)-p) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNormalQuantileEdges(t *testing.T) {
	if !math.IsInf(NormalQuantile(0), -1) || !math.IsInf(NormalQuantile(1), 1) {
		t.Error("quantile edges should be infinite")
	}
	if !math.IsNaN(NormalQuantile(-0.5)) || !math.IsNaN(NormalQuantile(1.5)) {
		t.Error("out-of-range p should be NaN")
	}
}

func TestShuffleIsPermutation(t *testing.T) {
	src := New(14)
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}
	src.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	seen := make(map[int]bool)
	for _, x := range xs {
		seen[x] = true
	}
	if len(seen) != 10 {
		t.Errorf("shuffle lost elements: %v", xs)
	}
}
