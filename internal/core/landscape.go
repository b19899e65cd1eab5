package core

import (
	"carriersense/internal/geometry"
)

// Policy selects a MAC policy for landscape evaluation.
type Policy int

const (
	// PolicySingle is the no-competition channel.
	PolicySingle Policy = iota
	// PolicyMultiplexing is ideal time-division multiplexing.
	PolicyMultiplexing
	// PolicyConcurrent is simultaneous transmission.
	PolicyConcurrent
)

// String returns the policy name.
func (p Policy) String() string {
	switch p {
	case PolicySingle:
		return "no-competition"
	case PolicyMultiplexing:
		return "multiplexing"
	case PolicyConcurrent:
		return "concurrency"
	default:
		return "unknown"
	}
}

// Grid is a square raster of values over [-Extent, Extent]² with the
// sender at the center, used to render the Figure 2 capacity
// landscapes and Figure 3 preference maps.
type Grid struct {
	Extent float64     // half-width of the square, model distance units
	N      int         // cells per side
	Values [][]float64 // Values[row][col], row 0 = +Extent (top)
}

// cellCenter returns the plane coordinates of cell (row, col).
func (g *Grid) cellCenter(row, col int) geometry.Point {
	step := 2 * g.Extent / float64(g.N)
	x := -g.Extent + (float64(col)+0.5)*step
	y := g.Extent - (float64(row)+0.5)*step
	return geometry.Point{X: x, Y: y}
}

// Landscape rasterizes the σ = 0 capacity landscape C_i(r, θ) of
// Figure 2: link capacity as a function of receiver position with the
// sender at the origin and (for PolicyConcurrent) an interferer on the
// x-axis at (-d, 0). Shadowing is ignored ("for clarity, in these
// plots we ignore shadowing", footnote 6).
func (m *Model) Landscape(policy Policy, d, extent float64, n int) *Grid {
	g := &Grid{Extent: extent, N: n, Values: make([][]float64, n)}
	for row := 0; row < n; row++ {
		g.Values[row] = make([]float64, n)
		for col := 0; col < n; col++ {
			p := g.cellCenter(row, col)
			c := Config{
				D: d, X1: p.X, Y1: p.Y, LSig1: 1, LInt1: 1,
			}
			var v float64
			switch policy {
			case PolicySingle:
				v = m.CSingle(c, 1)
			case PolicyMultiplexing:
				v = m.CMultiplexing(c, 1)
			case PolicyConcurrent:
				v = m.CConcurrent(c, 1)
			}
			g.Values[row][col] = v
		}
	}
	return g
}

// Preference classifies a receiver position for Figure 3.
type Preference int

const (
	// PrefConcurrency: the receiver does better under concurrency
	// (dark regions of Figure 3).
	PrefConcurrency Preference = iota
	// PrefMultiplexing: the receiver does better under multiplexing
	// (light regions).
	PrefMultiplexing
	// PrefStarved: the receiver prefers multiplexing and receives less
	// than 10% of its C_UBmax without it (white regions) — a genuine
	// hidden terminal.
	PrefStarved
)

// String returns the preference label.
func (p Preference) String() string {
	switch p {
	case PrefConcurrency:
		return "concurrency"
	case PrefMultiplexing:
		return "multiplexing"
	case PrefStarved:
		return "starved"
	default:
		return "unknown"
	}
}

// StarvationFraction is the C_UBmax fraction below which Figure 3
// paints a receiver white ("<10% of C_UBmax").
const StarvationFraction = 0.10

// PreferenceMap rasterizes Figure 3's receiver preference regions for
// an interferer at distance d (σ = 0). Values hold Preference codes as
// float64 for Grid compatibility.
func (m *Model) PreferenceMap(d, extent float64, n int) *Grid {
	g := &Grid{Extent: extent, N: n, Values: make([][]float64, n)}
	for row := 0; row < n; row++ {
		g.Values[row] = make([]float64, n)
		for col := 0; col < n; col++ {
			p := g.cellCenter(row, col)
			c := Config{
				D: d, X1: p.X, Y1: p.Y, LSig1: 1, LInt1: 1,
			}
			pref := PrefConcurrency
			if m.PrefersMultiplexing(c, 1) {
				pref = PrefMultiplexing
				if m.StarvedUnderConcurrency(c, 1, StarvationFraction) {
					pref = PrefStarved
				}
			}
			g.Values[row][col] = float64(pref)
		}
	}
	return g
}

// PreferenceShares summarizes a preference map restricted to receivers
// inside radius rmax of the sender: the area fractions preferring
// concurrency, preferring multiplexing, and starved.
func (g *Grid) PreferenceShares(rmax float64) (conc, mux, starved float64) {
	total := 0.0
	for row := range g.Values {
		for col := range g.Values[row] {
			p := g.cellCenter(row, col)
			if p.Norm() > rmax {
				continue
			}
			total++
			switch Preference(int(g.Values[row][col])) {
			case PrefConcurrency:
				conc++
			case PrefMultiplexing:
				mux++
			case PrefStarved:
				starved++
			}
		}
	}
	if total == 0 {
		return 0, 0, 0
	}
	return conc / total, mux / total, starved / total
}
