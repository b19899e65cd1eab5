// Package testbed generates a synthetic indoor 802.11 testbed and runs
// the paper's §4 experiment protocol on it over the packet simulator.
//
// The paper's physical testbed — "roughly 50 Soekris single-board
// computers scattered about two closely-coupled floors of a large,
// modern office building", Atheros 802.11a radios, one rubber-duck
// antenna each — is proprietary hardware we cannot rerun. In its
// place we generate a statistically equivalent building: nodes
// scattered over two floors, link gains drawn from the paper's own
// measured propagation model (α ≈ 3.5, σ ≈ 10 dB, footnote 2 /
// Figure 14) with ITU-style floor attenuation, frozen into a static
// symmetric gain matrix for the run.
package testbed

import (
	"fmt"
	"math"
	"sync"

	"carriersense/internal/capacity"
	"carriersense/internal/montecarlo"
	"carriersense/internal/phy"
	"carriersense/internal/rng"
)

// LayoutParams describes the synthetic building and radio hardware.
type LayoutParams struct {
	Nodes       int     // total node count (paper: ~50)
	FloorWidthM float64 // building extent, meters
	FloorDepthM float64
	Floors      int     // paper: two closely-coupled floors
	FloorGapM   float64 // vertical spacing between floors

	Alpha      float64 // path loss exponent (paper's fit: 3.5)
	SigmaDB    float64 // shadowing σ (paper's fit: ~10 dB)
	FloorAttDB float64 // per-floor penetration loss ("closely-coupled")

	// ShadowCorrelation is the fraction of shadowing variance carried
	// by per-node components shared across a node's links. Real
	// shadowing is spatially correlated — a node buried in a machine
	// room is hard to reach from everywhere — and footnote 14 of the
	// paper concedes its fully-uncorrelated assumption "is not quite
	// true". 0 is fully path-independent, 1 fully node-determined.
	ShadowCorrelation float64

	// Fade is the per-frame residual fading model (see
	// phy.Config.Fade); the link census integrates over it. Each
	// link's deep-fade outage probability is drawn per path from a
	// lognormal around Fade.OutageProb (see OutageSpreadLn).
	Fade capacity.FadeModel

	// OutageSpreadLn is the log-domain spread of per-link outage
	// probabilities: most links lose almost nothing to bursts, a tail
	// of paths (long delay spread, busy corridors) loses 10-20%.
	OutageSpreadLn float64

	// OutageDistanceM scales the growth of burst losses with path
	// length: longer indoor paths accumulate delay spread and
	// obstructed Fresnel zones, so the per-link outage probability is
	// multiplied by 1 + (d/OutageDistanceM)². This is what makes
	// high-delivery links skew short and SNR-rich, as in the paper's
	// census (94%-delivery links averaged ≈27 dB SNR).
	OutageDistanceM float64

	TxPowerDBm    float64 // paper: ~15 dBm
	RefLoss1mDB   float64 // loss at 1 m (~47 dB at 5.2 GHz)
	NoiseFloorDBm float64 // paper: ~-95 dBm

	// NoiseSigmaDB adds per-node receiver noise floor variation
	// (footnote 20 corrects for exactly this in the real testbed).
	NoiseSigmaDB float64
}

// DefaultLayout returns parameters matching the paper's description
// and measured propagation fit.
func DefaultLayout() LayoutParams {
	return LayoutParams{
		Nodes:       50,
		FloorWidthM: 100,
		FloorDepthM: 40,
		Floors:      2,
		FloorGapM:   4,

		Alpha:             3.5,
		SigmaDB:           10,
		FloorAttDB:        8,
		ShadowCorrelation: 0.8,
		Fade:              capacity.DefaultFade(),
		OutageSpreadLn:    1.2,
		OutageDistanceM:   30,

		TxPowerDBm:    15,
		RefLoss1mDB:   47,
		NoiseFloorDBm: -95,
		NoiseSigmaDB:  1.5,
	}
}

// Node is one testbed radio's placement.
type Node struct {
	ID    phy.NodeID
	X, Y  float64 // meters within the floor
	Floor int
}

// Testbed is a frozen realization: node placements, the symmetric gain
// matrix, and per-node noise floor offsets.
type Testbed struct {
	Params LayoutParams
	Nodes  []Node
	// gainDB[i][j] is the channel gain in dB from node i to node j
	// (symmetric: shadowing is a property of the path).
	gainDB [][]float64
	// gainLin[i][j] is 10^(gainDB[i][j]/10), precomputed so the packet
	// simulator's per-frame power queries never convert dB
	// (phy.LinearChannel).
	gainLin [][]float64
	// noiseOffsetDB[i] is node i's receiver noise floor deviation.
	noiseOffsetDB []float64
	// outageProb[i][j] is the per-link deep-fade probability
	// (symmetric).
	outageProb [][]float64
	// seed is the Generate seed; together with Params it is the
	// realization's serializable identity — what lets a two-pair
	// replication travel to a worker process as a sim kernel and be
	// rebuilt there bit-identically (see kernel.go).
	seed uint64
	// links is the link census, computed on first use; every range
	// class and experiment on the realization shares it.
	censusOnce sync.Once
	links      []Link
}

// Generate creates a testbed realization from the given seed. The same
// (params, seed) always yields the same building.
func Generate(p LayoutParams, seed uint64) *Testbed {
	src := rng.New(seed)
	tb := &Testbed{Params: p, seed: seed}
	tb.Nodes = make([]Node, p.Nodes)
	for i := range tb.Nodes {
		tb.Nodes[i] = Node{
			ID:    phy.NodeID(i),
			X:     src.Uniform(0, p.FloorWidthM),
			Y:     src.Uniform(0, p.FloorDepthM),
			Floor: src.IntN(p.Floors),
		}
	}
	tb.gainDB = make([][]float64, p.Nodes)
	for i := range tb.gainDB {
		tb.gainDB[i] = make([]float64, p.Nodes)
	}
	// Decompose shadowing into per-node components (correlated across
	// a node's links) plus a per-path residual, preserving total
	// variance SigmaDB².
	rho := p.ShadowCorrelation
	nodeComp := make([]float64, p.Nodes)
	for i := range nodeComp {
		nodeComp[i] = src.Normal(0, p.SigmaDB)
	}
	pathScale := math.Sqrt(1 - rho*rho)
	for i := 0; i < p.Nodes; i++ {
		for j := i + 1; j < p.Nodes; j++ {
			shadow := rho*(nodeComp[i]+nodeComp[j])/math.Sqrt2 +
				pathScale*src.Normal(0, p.SigmaDB)
			g := tb.medianGainDB(i, j) + shadow
			tb.gainDB[i][j] = g
			tb.gainDB[j][i] = g
		}
	}
	tb.gainLin = make([][]float64, p.Nodes)
	for i := range tb.gainLin {
		tb.gainLin[i] = make([]float64, p.Nodes)
		for j := range tb.gainLin[i] {
			if i == j {
				tb.gainLin[i][j] = 1
				continue
			}
			tb.gainLin[i][j] = phy.DBToLin(tb.gainDB[i][j])
		}
	}
	tb.noiseOffsetDB = make([]float64, p.Nodes)
	for i := range tb.noiseOffsetDB {
		tb.noiseOffsetDB[i] = src.Normal(0, p.NoiseSigmaDB)
	}
	tb.outageProb = make([][]float64, p.Nodes)
	for i := range tb.outageProb {
		tb.outageProb[i] = make([]float64, p.Nodes)
	}
	for i := 0; i < p.Nodes; i++ {
		for j := i + 1; j < p.Nodes; j++ {
			op := p.Fade.OutageProb * math.Exp(src.Normal(0, p.OutageSpreadLn))
			if p.OutageDistanceM > 0 {
				rel := tb.DistanceM(i, j) / p.OutageDistanceM
				op *= 1 + rel*rel
			}
			if op > 0.5 {
				op = 0.5
			}
			tb.outageProb[i][j] = op
			tb.outageProb[j][i] = op
		}
	}
	return tb
}

// DistanceM returns the 3-D distance between two nodes in meters,
// with floors contributing their vertical gap.
func (tb *Testbed) DistanceM(i, j int) float64 {
	a, b := tb.Nodes[i], tb.Nodes[j]
	dz := float64(a.Floor-b.Floor) * tb.Params.FloorGapM
	dx, dy := a.X-b.X, a.Y-b.Y
	return math.Sqrt(dx*dx + dy*dy + dz*dz)
}

// medianGainDB is the deterministic part of the link gain: reference
// loss, power-law path loss, floor penetration.
func (tb *Testbed) medianGainDB(i, j int) float64 {
	d := tb.DistanceM(i, j)
	if d < 1 {
		d = 1
	}
	floors := tb.Nodes[i].Floor - tb.Nodes[j].Floor
	if floors < 0 {
		floors = -floors
	}
	return -(tb.Params.RefLoss1mDB +
		10*tb.Params.Alpha*math.Log10(d) +
		tb.Params.FloorAttDB*float64(floors))
}

// GainDB implements phy.Channel.
func (tb *Testbed) GainDB(from, to phy.NodeID) float64 {
	if from == to {
		return 0
	}
	return tb.gainDB[from][to]
}

// GainLin implements phy.LinearChannel: the precomputed linear power
// gain 10^(GainDB/10).
func (tb *Testbed) GainLin(from, to phy.NodeID) float64 {
	if from == to {
		return 1
	}
	return tb.gainLin[from][to]
}

// OutageProbability implements phy.OutageChannel.
func (tb *Testbed) OutageProbability(from, to phy.NodeID) float64 {
	if from == to || from < 0 || to < 0 {
		return 0
	}
	return tb.outageProb[from][to]
}

// NoiseOffsetDB returns node i's receiver noise floor deviation.
func (tb *Testbed) NoiseOffsetDB(i phy.NodeID) float64 {
	return tb.noiseOffsetDB[i]
}

// RSSIdBm returns the long-run received power of node from at node to.
func (tb *Testbed) RSSIdBm(from, to phy.NodeID) float64 {
	return tb.Params.TxPowerDBm + tb.GainDB(from, to)
}

// SNRdB returns the long-run SNR of the from→to link at node to.
func (tb *Testbed) SNRdB(from, to phy.NodeID) float64 {
	return tb.RSSIdBm(from, to) - (tb.Params.NoiseFloorDBm + tb.noiseOffsetDB[to])
}

// Link is a directed sender→receiver pair with its link-level census
// metrics.
type Link struct {
	Src, Dst    phy.NodeID
	SNRdB       float64
	DeliveryAt6 float64 // expected 1400-byte delivery rate at 6 Mb/s
}

// String renders the link for logs.
func (l Link) String() string {
	return fmt.Sprintf("%d->%d snr=%.1fdB d6=%.2f", l.Src, l.Dst, l.SNRdB, l.DeliveryAt6)
}

// Census enumerates all directed links with their expected 6 Mb/s
// delivery rates — the paper's link-level metric for categorizing
// short-range (≥94%) versus long-range (80-95%) pairs. Links are
// ordered by sender, then receiver. The census is computed on first
// use and shared by every caller, which must not modify it. Sender
// rows are striped over the montecarlo pool, each row writing its own
// span of one preallocated slice, so the census is the same at any
// width.
func (tb *Testbed) Census() []Link {
	tb.censusOnce.Do(func() {
		n := tb.Params.Nodes
		if n < 2 {
			return
		}
		tb.links = make([]Link, n*(n-1))
		workers := min(montecarlo.Workers(), n)
		var wg sync.WaitGroup
		for w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := w; i < n; i += workers {
					tb.censusRow(i, tb.links[i*(n-1):(i+1)*(n-1)])
				}
			}()
		}
		wg.Wait()
	})
	return tb.links
}

// censusRow fills row with node i's outgoing links in receiver order.
func (tb *Testbed) censusRow(i int, row []Link) {
	rate6 := capacity.Table80211a[0]
	k := 0
	for j := 0; j < tb.Params.Nodes; j++ {
		if i == j {
			continue
		}
		snr := tb.SNRdB(phy.NodeID(i), phy.NodeID(j))
		fade := tb.Params.Fade.WithOutageProb(tb.outageProb[i][j])
		row[k] = Link{
			Src:         phy.NodeID(i),
			Dst:         phy.NodeID(j),
			SNRdB:       snr,
			DeliveryAt6: fade.ExpectedDeliveryRate(rate6, snr, 1400),
		}
		k++
	}
}

// RangeClass selects the paper's two experiment categories.
type RangeClass int

// Range classes.
const (
	// ShortRange: links better than 94% delivery at 6 Mb/s (§4.1;
	// average SNR ≈ 27 dB, similar to an R_max = 30 model network).
	ShortRange RangeClass = iota
	// LongRange: links between 80% and 95% (§4.2; average SNR ≈ 16 dB,
	// similar to R_max = 70).
	LongRange
	// DeepLongRange: links below 30% delivery at 6 Mb/s but with SNR
	// still above the DSSS 1 Mb/s floor — the regime §4.2 could NOT
	// probe ("pushing farther into the long range regime runs up
	// against the limits of bitrate adaptability in 11a mode") and
	// suggests 11g's lower rates for. The extension experiment
	// Extension11g exercises it.
	DeepLongRange
)

// String returns the class name.
func (rc RangeClass) String() string {
	switch rc {
	case ShortRange:
		return "short-range"
	case LongRange:
		return "long-range"
	case DeepLongRange:
		return "deep-long-range"
	default:
		return "?"
	}
}

// Matches reports whether a link falls in the class's delivery band.
func (rc RangeClass) Matches(l Link) bool {
	switch rc {
	case ShortRange:
		return l.DeliveryAt6 >= 0.94
	case LongRange:
		return l.DeliveryAt6 >= 0.80 && l.DeliveryAt6 < 0.95
	case DeepLongRange:
		return l.DeliveryAt6 < 0.30 && l.SNRdB >= 2
	default:
		return false
	}
}

// QualifyingLinks returns the directed links in the class's band, in
// census order, as a slice of the caller's own.
func (tb *Testbed) QualifyingLinks(rc RangeClass) []Link {
	var out []Link
	for _, l := range tb.Census() {
		if rc.Matches(l) {
			out = append(out, l)
		}
	}
	return out
}
