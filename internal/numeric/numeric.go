// Package numeric provides the deterministic numerical routines behind
// the analytical model: root finding (the optimal carrier sense
// threshold is the root of ⟨C_conc⟩(D) − ⟨C_mux⟩, §3.3.3), scalar
// minimization, quadrature for the σ=0 integrals, and a Nelder-Mead
// simplex optimizer used by the censored maximum-likelihood
// propagation fit (Figure 14).
package numeric

import (
	"errors"
	"math"
	"sort"
	"sync"
)

// ErrNoBracket is returned by root finders when the supplied interval
// does not bracket a sign change.
var ErrNoBracket = errors.New("numeric: interval does not bracket a root")

// ErrNoConverge is returned when an iterative method exceeds its
// iteration budget without meeting tolerance.
var ErrNoConverge = errors.New("numeric: failed to converge")

// Brent finds a root of f in [a, b] using Brent's method. f(a) and
// f(b) must have opposite signs. tol is the absolute x tolerance.
func Brent(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if fa*fb > 0 {
		return 0, ErrNoBracket
	}
	c, fc := a, fa
	var d, e float64 = b - a, b - a
	for i := 0; i < 200; i++ {
		if math.Abs(fc) < math.Abs(fb) {
			a, b, c = b, c, b
			fa, fb, fc = fb, fc, fb
		}
		tol1 := 2*math.Nextafter(math.Abs(b), math.Inf(1))*0x1p-52 + tol/2
		xm := (c - b) / 2
		if math.Abs(xm) <= tol1 || fb == 0 {
			return b, nil
		}
		if math.Abs(e) >= tol1 && math.Abs(fa) > math.Abs(fb) {
			// Attempt inverse quadratic interpolation / secant.
			s := fb / fa
			var p, q float64
			if a == c {
				p = 2 * xm * s
				q = 1 - s
			} else {
				q = fa / fc
				r := fb / fc
				p = s * (2*xm*q*(q-r) - (b-a)*(r-1))
				q = (q - 1) * (r - 1) * (s - 1)
			}
			if p > 0 {
				q = -q
			}
			p = math.Abs(p)
			if 2*p < math.Min(3*xm*q-math.Abs(tol1*q), math.Abs(e*q)) {
				e, d = d, p/q
			} else {
				d, e = xm, xm
			}
		} else {
			d, e = xm, xm
		}
		a, fa = b, fb
		if math.Abs(d) > tol1 {
			b += d
		} else if xm > 0 {
			b += tol1
		} else {
			b -= tol1
		}
		fb = f(b)
		if (fb > 0) == (fc > 0) {
			c, fc = a, fa
			e = b - a
			d = e
		}
	}
	return b, ErrNoConverge
}

// Bisect finds a root of f in [a, b] by bisection. It is slower than
// Brent but immune to the noise of Monte Carlo objective functions, so
// the threshold solver uses it when the curves are MC estimates.
func Bisect(f func(float64) float64, a, b, tol float64) (float64, error) {
	fa, fb := f(a), f(b)
	if fa == 0 {
		return a, nil
	}
	if fb == 0 {
		return b, nil
	}
	if fa*fb > 0 {
		return 0, ErrNoBracket
	}
	for math.Abs(b-a) > tol {
		m := (a + b) / 2
		fm := f(m)
		if fm == 0 {
			return m, nil
		}
		if (fm > 0) == (fa > 0) {
			a, fa = m, fm
		} else {
			b = m
		}
	}
	return (a + b) / 2, nil
}

// GoldenMin minimizes a unimodal f over [a, b] by golden-section
// search and returns the minimizing x.
func GoldenMin(f func(float64) float64, a, b, tol float64) float64 {
	const invPhi = 0.6180339887498949
	x1 := b - invPhi*(b-a)
	x2 := a + invPhi*(b-a)
	f1, f2 := f(x1), f(x2)
	for math.Abs(b-a) > tol {
		if f1 < f2 {
			b, x2, f2 = x2, x1, f1
			x1 = b - invPhi*(b-a)
			f1 = f(x1)
		} else {
			a, x1, f1 = x1, x2, f2
			x2 = a + invPhi*(b-a)
			f2 = f(x2)
		}
	}
	return (a + b) / 2
}

// GoldenMax maximizes a unimodal f over [a, b].
func GoldenMax(f func(float64) float64, a, b, tol float64) float64 {
	return GoldenMin(func(x float64) float64 { return -f(x) }, a, b, tol)
}

// Simpson integrates f over [a, b] with adaptive Simpson quadrature to
// the given absolute tolerance.
func Simpson(f func(float64) float64, a, b, tol float64) float64 {
	c := (a + b) / 2
	fa, fb, fc := f(a), f(b), f(c)
	whole := (b - a) / 6 * (fa + 4*fc + fb)
	return adaptiveSimpson(f, a, b, fa, fb, fc, whole, tol, 24)
}

func adaptiveSimpson(f func(float64) float64, a, b, fa, fb, fc, whole, tol float64, depth int) float64 {
	c := (a + b) / 2
	l, r := (a+c)/2, (c+b)/2
	fl, fr := f(l), f(r)
	left := (c - a) / 6 * (fa + 4*fl + fc)
	right := (b - c) / 6 * (fc + 4*fr + fb)
	if depth <= 0 || math.Abs(left+right-whole) <= 15*tol {
		return left + right + (left+right-whole)/15
	}
	return adaptiveSimpson(f, a, c, fa, fc, fl, left, tol/2, depth-1) +
		adaptiveSimpson(f, c, b, fc, fb, fr, right, tol/2, depth-1)
}

// gl20x and gl20w are the nodes and weights of 20-point Gauss-Legendre
// quadrature on [-1, 1].
var gl20x = []float64{
	-0.9931285991850949, -0.9639719272779138, -0.9122344282513259,
	-0.8391169718222188, -0.7463319064601508, -0.6360536807265150,
	-0.5108670019508271, -0.3737060887154195, -0.2277858511416451,
	-0.0765265211334973, 0.0765265211334973, 0.2277858511416451,
	0.3737060887154195, 0.5108670019508271, 0.6360536807265150,
	0.7463319064601508, 0.8391169718222188, 0.9122344282513259,
	0.9639719272779138, 0.9931285991850949,
}

var gl20w = []float64{
	0.0176140071391521, 0.0406014298003869, 0.0626720483341091,
	0.0832767415767048, 0.1019301198172404, 0.1181945319615184,
	0.1316886384491766, 0.1420961093183820, 0.1491729864726037,
	0.1527533871307258, 0.1527533871307258, 0.1491729864726037,
	0.1420961093183820, 0.1316886384491766, 0.1181945319615184,
	0.1019301198172404, 0.0832767415767048, 0.0626720483341091,
	0.0406014298003869, 0.0176140071391521,
}

// GaussLegendre20 integrates f over [a, b] with a single 20-point
// Gauss-Legendre rule.
func GaussLegendre20(f func(float64) float64, a, b float64) float64 {
	mid, half := (a+b)/2, (b-a)/2
	sum := 0.0
	for i, x := range gl20x {
		sum += gl20w[i] * f(mid+half*x)
	}
	return sum * half
}

// GaussLegendre20Panels integrates f over [a, b] split into n equal
// panels with a 20-point rule per panel. Used for the smooth but
// peaked σ=0 capacity integrands (capacity diverges logarithmically at
// the sender).
func GaussLegendre20Panels(f func(float64) float64, a, b float64, n int) float64 {
	if n < 1 {
		n = 1
	}
	h := (b - a) / float64(n)
	sum := 0.0
	for i := 0; i < n; i++ {
		sum += GaussLegendre20(f, a+float64(i)*h, a+float64(i+1)*h)
	}
	return sum
}

// DiscNode is one node of a disc quadrature: polar coordinates with
// θ's sine and cosine precomputed, so an integrand that needs
// Cartesian coordinates pays no trigonometry per node. R·Cos and
// R·Sin are bit-identical to geometry.Polar(R, Theta).
type DiscNode struct{ R, Theta, Sin, Cos float64 }

// DiscAverage computes the area-average of f over the disc of the
// given radius: the dim-1 case of DiscAverageVec.
func DiscAverage(f func(n DiscNode) float64, radius float64, rPanels, thetaPanels, width int) float64 {
	return DiscAverageVec(func(n DiscNode, out []float64) { out[0] = f(n) }, 1, radius, rPanels, thetaPanels, width)[0]
}

// DiscAverageVec computes the area-averages of the dim components f
// writes into out, over the disc of the given radius, by nested
// Gauss-Legendre quadrature (rPanels in r × thetaPanels in θ, each a
// 20-point rule as in GaussLegendre20Panels; counts below 1 clamp to
// 1). One sweep evaluates f once per node for all components, and
// each component is bit-identical to a sweep of that component alone.
// It backs the σ=0 disc averages behind the control-twin means and
// the threshold solver.
//
// The r-panels are spread over width goroutines, so f must be safe for
// concurrent calls. Each panel's partial sums land in their own slot
// and the slots are added in panel order after the join: the result
// does not depend on width.
func DiscAverageVec(f func(n DiscNode, out []float64), dim int, radius float64, rPanels, thetaPanels, width int) []float64 {
	rPanels, thetaPanels = max(rPanels, 1), max(thetaPanels, 1)
	width = min(max(width, 1), rPanels)
	nq := len(gl20x)

	// The θ nodes are the same for every r: compute them, and their
	// sines and cosines, once. The expressions are GaussLegendre20's.
	nodes := make([]DiscNode, thetaPanels*nq)
	halves := make([]float64, thetaPanels)
	ht := (2 * math.Pi) / float64(thetaPanels)
	for j := range halves {
		a, b := float64(j)*ht, float64(j+1)*ht
		mid, half := (a+b)/2, (b-a)/2
		halves[j] = half
		for k, x := range gl20x {
			theta := mid + half*x
			sin, cos := math.Sincos(theta)
			nodes[j*nq+k] = DiscNode{Theta: theta, Sin: sin, Cos: cos}
		}
	}

	hr := radius / float64(rPanels)
	slots := make([]float64, rPanels*dim)
	sweep := func(first int) {
		scratch := make([]float64, 4*dim)
		out, inner, panel, acc := scratch[:dim], scratch[dim:2*dim], scratch[2*dim:3*dim], scratch[3*dim:]
		for i := first; i < rPanels; i += width {
			a, b := float64(i)*hr, float64(i+1)*hr
			mid, half := (a+b)/2, (b-a)/2
			clear(acc)
			for k, x := range gl20x {
				r := mid + half*x
				clear(inner)
				for j, thHalf := range halves {
					clear(panel)
					for l, n := range nodes[j*nq : (j+1)*nq] {
						n.R = r
						f(n, out)
						for c, v := range out {
							panel[c] += gl20w[l] * v
						}
					}
					for c, v := range panel {
						inner[c] += v * thHalf
					}
				}
				for c, v := range inner {
					acc[c] += gl20w[k] * (r * v)
				}
			}
			// One store per panel: neighbouring slots belong to other
			// goroutines and may share a cache line.
			for c, v := range acc {
				slots[i*dim+c] = v * half
			}
		}
	}
	var wg sync.WaitGroup
	for g := 1; g < width; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sweep(g)
		}()
	}
	sweep(0)
	wg.Wait()

	// slots is panel-major, so this adds each component's panels in
	// panel order.
	avg := make([]float64, dim)
	for i, v := range slots {
		avg[i%dim] += v
	}
	for c := range avg {
		avg[c] /= math.Pi * radius * radius
	}
	return avg
}

// NelderMead minimizes f over R^n starting from x0 with initial simplex
// step sizes step. It returns the best point found after maxIter
// iterations or when the simplex collapses below tol.
func NelderMead(f func([]float64) float64, x0, step []float64, tol float64, maxIter int) []float64 {
	n := len(x0)
	type vertex struct {
		x []float64
		f float64
	}
	mk := func(x []float64) vertex {
		cp := append([]float64(nil), x...)
		return vertex{x: cp, f: f(cp)}
	}
	simplex := make([]vertex, n+1)
	simplex[0] = mk(x0)
	for i := 0; i < n; i++ {
		x := append([]float64(nil), x0...)
		x[i] += step[i]
		simplex[i+1] = mk(x)
	}
	const alpha, gamma, rho, sigma = 1.0, 2.0, 0.5, 0.5
	for iter := 0; iter < maxIter; iter++ {
		sort.Slice(simplex, func(i, j int) bool { return simplex[i].f < simplex[j].f })
		if math.Abs(simplex[n].f-simplex[0].f) < tol {
			spread := 0.0
			for i := 0; i < n; i++ {
				spread += math.Abs(simplex[n].x[i] - simplex[0].x[i])
			}
			if spread < tol {
				break
			}
		}
		// Centroid of all but worst.
		centroid := make([]float64, n)
		for _, v := range simplex[:n] {
			for i := range centroid {
				centroid[i] += v.x[i] / float64(n)
			}
		}
		reflect := make([]float64, n)
		for i := range reflect {
			reflect[i] = centroid[i] + alpha*(centroid[i]-simplex[n].x[i])
		}
		vr := mk(reflect)
		switch {
		case vr.f < simplex[0].f:
			expand := make([]float64, n)
			for i := range expand {
				expand[i] = centroid[i] + gamma*(reflect[i]-centroid[i])
			}
			ve := mk(expand)
			if ve.f < vr.f {
				simplex[n] = ve
			} else {
				simplex[n] = vr
			}
		case vr.f < simplex[n-1].f:
			simplex[n] = vr
		default:
			contract := make([]float64, n)
			for i := range contract {
				contract[i] = centroid[i] + rho*(simplex[n].x[i]-centroid[i])
			}
			vc := mk(contract)
			if vc.f < simplex[n].f {
				simplex[n] = vc
			} else {
				// Shrink toward best.
				for j := 1; j <= n; j++ {
					x := make([]float64, n)
					for i := range x {
						x[i] = simplex[0].x[i] + sigma*(simplex[j].x[i]-simplex[0].x[i])
					}
					simplex[j] = mk(x)
				}
			}
		}
	}
	sort.Slice(simplex, func(i, j int) bool { return simplex[i].f < simplex[j].f })
	return simplex[0].x
}

// Derivative estimates f'(x) with a central difference of step h.
func Derivative(f func(float64) float64, x, h float64) float64 {
	return (f(x+h) - f(x-h)) / (2 * h)
}

// LogSpace returns n points logarithmically spaced over [lo, hi].
func LogSpace(lo, hi float64, n int) []float64 {
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	llo, lhi := math.Log(lo), math.Log(hi)
	for i := range out {
		out[i] = math.Exp(llo + (lhi-llo)*float64(i)/float64(n-1))
	}
	return out
}

// LinSpace returns n points linearly spaced over [lo, hi].
func LinSpace(lo, hi float64, n int) []float64 {
	if n == 1 {
		return []float64{lo}
	}
	out := make([]float64, n)
	for i := range out {
		out[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return out
}
