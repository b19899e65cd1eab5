package numeric

import (
	"errors"
	"math"
	"testing"
)

func TestBrentFindsRoots(t *testing.T) {
	cases := []struct {
		name string
		f    func(float64) float64
		a, b float64
		want float64
	}{
		{"linear", func(x float64) float64 { return 2*x - 3 }, 0, 10, 1.5},
		{"cosx-x", func(x float64) float64 { return math.Cos(x) - x }, 0, 1, 0.7390851},
		{"cubic", func(x float64) float64 { return x*x*x - 2 }, 0, 2, math.Cbrt(2)},
		{"endpoint", func(x float64) float64 { return x }, 0, 5, 0},
	}
	for _, c := range cases {
		got, err := Brent(c.f, c.a, c.b, 1e-10)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if math.Abs(got-c.want) > 1e-7 {
			t.Errorf("%s: root = %v, want %v", c.name, got, c.want)
		}
	}
}

func TestBrentNoBracket(t *testing.T) {
	_, err := Brent(func(x float64) float64 { return x*x + 1 }, -1, 1, 1e-9)
	if !errors.Is(err, ErrNoBracket) {
		t.Errorf("err = %v, want ErrNoBracket", err)
	}
}

func TestBisect(t *testing.T) {
	got, err := Bisect(func(x float64) float64 { return x*x - 2 }, 0, 2, 1e-10)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-math.Sqrt2) > 1e-9 {
		t.Errorf("bisect sqrt2 = %v", got)
	}
	if _, err := Bisect(func(x float64) float64 { return 1.0 }, 0, 1, 1e-9); !errors.Is(err, ErrNoBracket) {
		t.Errorf("want ErrNoBracket, got %v", err)
	}
}

func TestGoldenMinMax(t *testing.T) {
	min := GoldenMin(func(x float64) float64 { return (x - 3) * (x - 3) }, -10, 10, 1e-9)
	if math.Abs(min-3) > 1e-6 {
		t.Errorf("GoldenMin = %v, want 3", min)
	}
	max := GoldenMax(func(x float64) float64 { return -(x + 1) * (x + 1) }, -10, 10, 1e-9)
	if math.Abs(max+1) > 1e-6 {
		t.Errorf("GoldenMax = %v, want -1", max)
	}
}

func TestSimpson(t *testing.T) {
	// ∫₀^π sin = 2
	got := Simpson(math.Sin, 0, math.Pi, 1e-10)
	if math.Abs(got-2) > 1e-8 {
		t.Errorf("Simpson sin = %v, want 2", got)
	}
	// ∫₀¹ x² = 1/3 (exact for Simpson)
	got = Simpson(func(x float64) float64 { return x * x }, 0, 1, 1e-12)
	if math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("Simpson x^2 = %v", got)
	}
	// A peaked integrand.
	got = Simpson(func(x float64) float64 { return math.Exp(-x * x * 100) }, -2, 2, 1e-12)
	want := math.Sqrt(math.Pi) / 10
	if math.Abs(got-want) > 1e-8 {
		t.Errorf("Simpson gaussian = %v, want %v", got, want)
	}
}

func TestGaussLegendre20PolynomialExactness(t *testing.T) {
	// 20-point GL is exact for polynomials up to degree 39.
	f := func(x float64) float64 { return math.Pow(x, 15) - 3*math.Pow(x, 8) + x }
	got := GaussLegendre20(f, -1, 3)
	// Antiderivative: x^16/16 - x^9/3 + x²/2.
	F := func(x float64) float64 { return math.Pow(x, 16)/16 - math.Pow(x, 9)/3 + x*x/2 }
	want := F(3) - F(-1)
	if math.Abs(got-want) > 1e-8*math.Abs(want) {
		t.Errorf("GL20 = %v, want %v", got, want)
	}
}

func TestGaussLegendrePanels(t *testing.T) {
	got := GaussLegendre20Panels(math.Sin, 0, math.Pi, 8)
	if math.Abs(got-2) > 1e-12 {
		t.Errorf("GL panels sin = %v, want 2", got)
	}
	if got := GaussLegendre20Panels(math.Sin, 0, math.Pi, 0); math.Abs(got-2) > 1e-10 {
		t.Errorf("GL panels with n<1 = %v, want 2", got)
	}
}

func TestNelderMeadQuadratic(t *testing.T) {
	f := func(x []float64) float64 {
		return (x[0]-1)*(x[0]-1) + 10*(x[1]+2)*(x[1]+2)
	}
	got := NelderMead(f, []float64{5, 5}, []float64{1, 1}, 1e-12, 2000)
	if math.Abs(got[0]-1) > 1e-4 || math.Abs(got[1]+2) > 1e-4 {
		t.Errorf("NelderMead = %v, want (1,-2)", got)
	}
}

func TestNelderMeadRosenbrock(t *testing.T) {
	f := func(x []float64) float64 {
		a := 1 - x[0]
		b := x[1] - x[0]*x[0]
		return a*a + 100*b*b
	}
	got := NelderMead(f, []float64{-1.2, 1}, []float64{0.5, 0.5}, 1e-14, 8000)
	if math.Abs(got[0]-1) > 1e-3 || math.Abs(got[1]-1) > 1e-3 {
		t.Errorf("Rosenbrock min = %v, want (1,1)", got)
	}
}

func TestDerivative(t *testing.T) {
	got := Derivative(math.Sin, 1, 1e-5)
	if math.Abs(got-math.Cos(1)) > 1e-8 {
		t.Errorf("d/dx sin(1) = %v, want %v", got, math.Cos(1))
	}
}

func TestLogSpace(t *testing.T) {
	xs := LogSpace(1, 100, 3)
	want := []float64{1, 10, 100}
	for i := range want {
		if math.Abs(xs[i]-want[i]) > 1e-9*want[i] {
			t.Errorf("LogSpace[%d] = %v, want %v", i, xs[i], want[i])
		}
	}
	if got := LogSpace(5, 50, 1); len(got) != 1 || got[0] != 5 {
		t.Errorf("LogSpace single = %v", got)
	}
}

func TestLinSpace(t *testing.T) {
	xs := LinSpace(0, 10, 5)
	want := []float64{0, 2.5, 5, 7.5, 10}
	for i := range want {
		if math.Abs(xs[i]-want[i]) > 1e-12 {
			t.Errorf("LinSpace[%d] = %v, want %v", i, xs[i], want[i])
		}
	}
}
