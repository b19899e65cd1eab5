package phy

import (
	"math"
	"testing"

	"carriersense/internal/capacity"
	"carriersense/internal/rng"
	"carriersense/internal/sim"
)

// referenceSurvival is the survival the medium computed before the
// bracket: per segment one Log10, capacity.PER and a Pow, multiplied
// in segment order.
func referenceSurvival(rate capacity.Rate, bytes int, segs []segment) float64 {
	survival := 1.0
	for _, g := range segs {
		sinrDB := 10 * math.Log10(g.sinr)
		per := capacity.PER(rate, sinrDB, bytes)
		if per > 0 {
			survival *= math.Pow(1-per, g.frac)
		}
	}
	return survival
}

// survivalRates are every rate of the 802.11a and 802.11b tables.
func survivalRates() []capacity.Rate {
	return append(append([]capacity.Rate{}, capacity.Table80211a...), capacity.Table80211b...)
}

// survivalBytes are the frame lengths the tests cover: 1400 is PER's
// reference length, and the others take its Pow(1-ref, scale) path.
var survivalBytes = []int{100, 1400, 2304}

// edgeSINR returns a bucket edge of t's grid, up to two cells beyond
// either end, moved by -1, 0 or +1 ulp.
func edgeSINR(t *perTable, src *rng.Source) float64 {
	e := perCellEdge(t.base - 2 + src.IntN(len(t.b)+4))
	switch src.IntN(3) {
	case 0:
		return math.Nextafter(e, 0)
	case 1:
		return math.Nextafter(e, math.Inf(1))
	}
	return e
}

// randomSINR draws a linear SINR: a bucket edge ±1 ulp, a point within
// 3 dB of the rate's PER midpoint, or a point anywhere in −40..+60 dB.
func randomSINR(t *perTable, rate capacity.Rate, src *rng.Source) float64 {
	switch src.IntN(3) {
	case 0:
		return edgeSINR(t, src)
	case 1:
		return DBToLin(rate.MinSNRdB - 3 + 6*src.Float64())
	}
	return DBToLin(-40 + 100*src.Float64())
}

// TestPERTableBracketsReference checks every table bucket against the
// reference at its edges, up to 8 ulps either side, and at points
// inside it: ln(1 − PER) must lie within the bucket's bounds. The
// reference is not monotone to the last ulp: at 1 Mb/s and 2304 bytes,
// 1 − PER two ulps below the edge 1.625 exceeds its value at the edge,
// so without the table's margins this test fails there.
func TestPERTableBracketsReference(t *testing.T) {
	src := rng.New(11)
	for _, rate := range survivalRates() {
		for _, bytes := range survivalBytes {
			tab := perTableFor(rate, bytes)
			check := func(sinr float64) {
				lnq := math.Log(1 - capacity.PER(rate, 10*math.Log10(sinr), bytes))
				if b := tab.bucket(sinr); lnq < b.lo || lnq > b.hi {
					t.Fatalf("%v Mb/s, %d B: ln q = %v at SINR %v outside its bucket [%v, %v]",
						rate.Mbps, bytes, lnq, sinr, b.lo, b.hi)
				}
			}
			for c := tab.base - 2; c <= tab.base+len(tab.b)+2; c++ {
				e := perCellEdge(c)
				check(e)
				down, up := e, e
				for k := 0; k < 8; k++ {
					down, up = math.Nextafter(down, 0), math.Nextafter(up, math.Inf(1))
					check(down)
					check(up)
				}
				for i := 0; i < 8; i++ {
					check(e * (1 + 0.044*src.Float64())) // one cell is 2^(1/16) ≈ 1.044 wide
				}
			}
			check(math.SmallestNonzeroFloat64)
			check(math.MaxFloat64)
		}
	}
}

// TestSurvivalDecisionMatchesReference drives the bracketed decision
// over random receptions of 1–12 segments and checks it against u < S,
// S the reference survival, for u uniform and u at S and one ulp either
// side of it. Receptions of more than keptSegments+1 segments fold
// kept segments into the exact survival on the way.
func TestSurvivalDecisionMatchesReference(t *testing.T) {
	src := rng.New(7)
	cfg := DefaultConfig()
	decisions, exact := 0, 0
	for _, rate := range survivalRates() {
		for _, bytes := range survivalBytes {
			tab := perTableFor(rate, bytes)
			dur := cfg.FrameDuration(bytes, rate)
			tx := &transmission{frame: Frame{Bytes: bytes, Rate: rate}, start: 0, end: dur, per: tab}
			for nseg := 1; nseg <= 12; nseg++ {
				for trial := 0; trial < 60; trial++ {
					// Cut the frame's airtime into nseg non-empty segments.
					cuts := make([]sim.Time, 0, nseg+1)
					cuts = append(cuts, 0)
					for i := 1; i < nseg; i++ {
						cuts = append(cuts, cuts[i-1]+1+sim.Time(src.IntN(int(dur-cuts[i-1])-(nseg-i))))
					}
					cuts = append(cuts, dur)
					segs := make([]segment, nseg)
					for i := range segs {
						segs[i] = segment{
							sinr: randomSINR(tab, rate, src),
							frac: float64(cuts[i+1]-cuts[i]) / float64(dur),
						}
					}
					s := referenceSurvival(rate, bytes, segs)
					for _, u := range []float64{src.Float64(), s, math.Nextafter(s, 0), math.Nextafter(s, 1)} {
						// Close every segment as the medium does: all
						// but the last are kept, and the last is passed
						// to the decision (or kept too, as when a frame
						// ends at a segment boundary).
						rx := reception{tx: tx, exact: 1}
						last, hasLast := segs[nseg-1], trial%4 != 0
						for i, g := range segs {
							rx.add(g)
							if i < nseg-1 || !hasLast {
								rx.keep(g)
							}
						}
						ok, fellBack := rx.delivered(u, last, hasLast)
						if want := u < s; ok != want {
							t.Fatalf("%v Mb/s, %d B, segments %v: u = %v, S = %v: decided %v, want %v",
								rate.Mbps, bytes, segs, u, s, ok, want)
						}
						decisions++
						if fellBack {
							exact++
						}
					}
				}
			}
		}
	}
	t.Logf("%d decisions, %d by the exact fallback", decisions, exact)
}

// gainMatrix is a LinearChannel over four radios with fixed dB gains.
type gainMatrix struct{ db, lin [4][4]float64 }

func newGainMatrix(db [4][4]float64) *gainMatrix {
	g := &gainMatrix{db: db}
	for i := range db {
		for j := range db[i] {
			g.lin[i][j] = DBToLin(db[i][j])
		}
	}
	return g
}

func (g *gainMatrix) GainDB(from, to NodeID) float64  { return g.db[from][to] }
func (g *gainMatrix) GainLin(from, to NodeID) float64 { return g.lin[from][to] }

// BenchmarkReceptionDecision times the PHY's work per frame, the
// survival decision among it, on a saturated concurrency run with
// fading on: senders 0 and 2 transmit back to back without carrier
// sense at 12 Mb/s, each to its receiver (1 and 3) at about 10 dB SINR
// over the other, so most receptions straddle a partial overlap. It
// reports ns per frame sent.
func BenchmarkReceptionDecision(b *testing.B) {
	ch := newGainMatrix([4][4]float64{
		{0, -75, -90, -85},
		{-75, 0, -85, -90},
		{-90, -85, 0, -75},
		{-85, -90, -75, 0},
	})
	s := sim.New()
	m := NewMedium(s, ch, DefaultConfig(), rng.New(1))
	rate := capacity.Table80211a[2]
	frames := 0
	for _, sender := range []struct {
		id  NodeID
		gap sim.Time
	}{{0, 13 * sim.Microsecond}, {2, 31 * sim.Microsecond}} {
		r, gap := m.AddRadio(sender.id, 15), sender.gap
		m.AddRadio(sender.id+1, 15)
		send := func() { r.Transmit(Frame{Dst: Broadcast, Bytes: 1400, Rate: rate}) }
		r.OnTxDone = func() {
			frames++
			s.After(gap, send)
		}
		send()
	}
	b.ResetTimer()
	until := sim.Time(0)
	for frames < b.N {
		until += 10 * sim.Millisecond
		s.Run(until)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(frames), "ns/frame")
}
