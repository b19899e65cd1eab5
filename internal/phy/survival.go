package phy

import (
	"math"
	"sync"

	"carriersense/internal/capacity"
)

// A frame survives its reception with probability S = Π q_i^frac_i,
// where segment i covers the fraction frac_i of the frame's airtime at
// one SINR and q_i = 1 − capacity.PER at that SINR. The reference
// computes S with one Log10, PER's Exp (and Pow, off the 1400-byte
// reference length) and a Pow per segment, then delivers the frame
// when a uniform draw u < S. Only that comparison has to be exact, so
// the medium brackets ln S with a table instead: each segment adds
// frac·lnLo and frac·lnHi from its SINR's bucket, and the reference
// loop runs over the recorded segments only when u lands inside the
// bracket.

// perBucketShift cuts the float64 bit grid into SINR buckets: keeping
// the sign, the 11 exponent bits and the top 4 mantissa bits gives 16
// geometric buckets per octave.
const perBucketShift = 52 - 4

// perTableSpanDB is how far the table reaches either side of a rate's
// MinSNRdB. PER clamps its logistic argument at ±40 widths (±24 dB),
// so beyond this span the end buckets cover a constant.
const perTableSpanDB = 30

// Margins that make a bucket hold every value the reference can
// compute inside it. The reference's dB conversion rounds, so each
// edge is evaluated a little outside the bucket (relative in SINR);
// its PER rounds as well, so q is widened (absolute).
const (
	sinrEdgeMargin = 1e-9
	qMargin        = 1e-15
)

// decisionMargin is the relative slack between the bracket and u. It
// covers the rounding of the bracket sums, of Exp and of the
// reference's product, each many orders of magnitude smaller: the
// fractions sum to 1 and a finite bound is at least ln(qMargin) ≈ −37,
// so a sum of n terms is off by at most about n·37·2⁻⁵³.
const decisionMargin = 1e-9

// perBucket bounds ln q over one SINR bucket.
type perBucket struct{ lo, hi float64 }

// perTable brackets ln(1 − PER) over SINR for one rate and frame
// length. Tables are built once per process and shared.
type perTable struct {
	rate  capacity.Rate
	bytes int
	base  int // grid cell of bucket 0
	b     []perBucket
}

type perKey struct {
	rate  capacity.Rate
	bytes int
}

var perTables sync.Map // perKey → *perTable

// perTableFor returns the process's table for frames of the given rate
// and length, building it on first use.
func perTableFor(rate capacity.Rate, bytes int) *perTable {
	k := perKey{rate, bytes}
	if t, ok := perTables.Load(k); ok {
		return t.(*perTable)
	}
	t, _ := perTables.LoadOrStore(k, newPERTable(rate, bytes))
	return t.(*perTable)
}

// perCell returns the grid cell a positive SINR falls in.
func perCell(sinr float64) int { return int(math.Float64bits(sinr) >> perBucketShift) }

// perCellEdge returns the lowest SINR of a grid cell.
func perCellEdge(c int) float64 { return math.Float64frombits(uint64(c) << perBucketShift) }

func newPERTable(rate capacity.Rate, bytes int) *perTable {
	base := perCell(DBToLin(rate.MinSNRdB - perTableSpanDB))
	top := perCell(DBToLin(rate.MinSNRdB + perTableSpanDB))
	t := &perTable{rate: rate, bytes: bytes, base: base, b: make([]perBucket, top-base+1)}
	// q is the reference's 1 − PER at a linear SINR.
	q := func(sinr float64) float64 {
		return 1 - capacity.PER(rate, 10*math.Log10(sinr), bytes)
	}
	for i := range t.b {
		// The end buckets reach down to 0 and up to +Inf, where the
		// reference's clamp holds PER constant.
		lo, hi := 0.0, math.Inf(1)
		if i > 0 {
			lo = perCellEdge(base+i) * (1 - sinrEdgeMargin)
		}
		if i < len(t.b)-1 {
			hi = perCellEdge(base+i+1) * (1 + sinrEdgeMargin)
		}
		t.b[i].lo = math.Inf(-1)
		if ql := q(lo) - qMargin; ql > 0 {
			t.b[i].lo = math.Log(ql)
		}
		t.b[i].hi = math.Min(0, math.Log(q(hi)+qMargin))
	}
	return t
}

// bucket returns the bounds on ln q at a linear SINR.
func (t *perTable) bucket(sinr float64) perBucket {
	i := perCell(sinr) - t.base
	if i < 0 {
		i = 0
	} else if i >= len(t.b) {
		i = len(t.b) - 1
	}
	return t.b[i]
}

// segment is one closed stretch of constant interference: the SINR and
// the fraction of the frame's airtime it covers.
type segment struct{ sinr, frac float64 }

// keptSegments is how many closed segments a reception holds for the
// exact fallback before folding them into its exact survival. The
// testbed's receptions close at most two before the last one.
const keptSegments = 2

// survive multiplies s by a segment's survival exactly as the
// reference does.
func survive(s float64, rate capacity.Rate, bytes int, g segment) float64 {
	per := capacity.PER(rate, 10*math.Log10(g.sinr), bytes)
	if per > 0 {
		s *= math.Pow(1-per, g.frac)
	}
	return s
}

// add adds a segment to the reception's bracket.
func (rx *reception) add(g segment) {
	b := rx.tx.per.bucket(g.sinr)
	rx.lnLo += g.frac * b.lo
	rx.lnHi += g.frac * b.hi
}

// keep records a closed segment for the exact fallback. When the
// record is full its segments are folded into the exact survival, in
// order, so the fallback multiplies in the reference's order.
func (rx *reception) keep(g segment) {
	if rx.n == keptSegments {
		f := rx.tx.frame
		for _, k := range rx.kept {
			rx.exact = survive(rx.exact, f.Rate, f.Bytes, k)
		}
		rx.n = 0
	}
	rx.kept[rx.n] = g
	rx.n++
}

// delivered decides whether the frame survives draw u, given the
// reception's last segment (already added). It equals u < S with S
// computed by the reference: u below the bracket's lower end delivers
// (1 + A_lo ≤ e^A_lo is tried first, since most frames see no
// interference), u above its upper end does not, and u inside it
// runs the reference over the recorded segments.
func (rx *reception) delivered(u float64, last segment, hasLast bool) (ok, exact bool) {
	if u < (1+rx.lnLo)*(1-decisionMargin) {
		return true, false
	}
	if u > math.Exp(rx.lnHi)*(1+decisionMargin) {
		return false, false
	}
	if u < math.Exp(rx.lnLo)*(1-decisionMargin) {
		return true, false
	}
	f := rx.tx.frame
	s := rx.exact
	for _, g := range rx.kept[:rx.n] {
		s = survive(s, f.Rate, f.Bytes, g)
	}
	if hasLast {
		s = survive(s, f.Rate, f.Bytes, last)
	}
	return u < s, true
}
