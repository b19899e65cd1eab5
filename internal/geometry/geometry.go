// Package geometry provides the small amount of planar geometry the
// carrier sense model needs: the model scenario of Figure 1 places a
// sender at the origin, its receiver uniformly at random inside the
// R_max disc, and the interfering sender on the negative x-axis at
// distance D.
package geometry

import (
	"math"

	"carriersense/internal/rng"
)

// Point is a position in the plane, in the paper's dimensionless
// "65 dB" distance units (§3.2.2) for the analytical model, or meters
// for the packet simulator.
type Point struct {
	X, Y float64
}

// Polar constructs a point from polar coordinates.
func Polar(r, theta float64) Point {
	sin, cos := math.Sincos(theta)
	return Point{X: r * cos, Y: r * sin}
}

// Dist returns the Euclidean distance between two points.
func (p Point) Dist(q Point) float64 {
	return math.Hypot(p.X-q.X, p.Y-q.Y)
}

// DistSq returns the squared Euclidean distance between two points —
// the form power-law path gains consume directly, skipping the Hypot
// round trip on hot paths.
func (p Point) DistSq(q Point) float64 {
	dx := p.X - q.X
	dy := p.Y - q.Y
	return dx*dx + dy*dy
}

// Norm returns the distance from the origin.
func (p Point) Norm() float64 {
	return math.Hypot(p.X, p.Y)
}

// Add returns p + q.
func (p Point) Add(q Point) Point {
	return Point{X: p.X + q.X, Y: p.Y + q.Y}
}

// Scale returns p scaled by k.
func (p Point) Scale(k float64) Point {
	return Point{X: k * p.X, Y: k * p.Y}
}

// UniformInDisc draws a point uniformly distributed over the disc of
// the given radius centered at the origin. Uniformity over *area* is
// what the model's assumption of uniformly distributed receivers
// requires: the radius is drawn as radius*sqrt(u), not radius*u.
func UniformInDisc(src *rng.Source, radius float64) Point {
	r := radius * math.Sqrt(src.Float64())
	theta := src.Uniform(0, 2*math.Pi)
	return Polar(r, theta)
}

// FractionCloserTo returns the fraction of the R_max disc around the
// origin that lies closer to the point q than to the origin. The §3.4
// worked example uses this geometric fraction ("approximately the
// fraction of the R_max disc's area closer to D = 20 than to the
// sender") to estimate how many receivers an undetected interferer
// smothers. Computed by deterministic midpoint quadrature over the
// disc; exact enough (<1e-4) for the analyses that consume it.
func FractionCloserTo(q Point, rmax float64) float64 {
	const nr, nt = 400, 400
	inside := 0.0
	total := 0.0
	for i := 0; i < nr; i++ {
		r := rmax * (float64(i) + 0.5) / nr
		w := r // area weight
		for j := 0; j < nt; j++ {
			theta := 2 * math.Pi * (float64(j) + 0.5) / nt
			p := Polar(r, theta)
			total += w
			if p.Dist(q) < p.Norm() {
				inside += w
			}
		}
	}
	return inside / total
}
