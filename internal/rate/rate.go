// Package rate provides bitrate adaptation algorithms for the packet
// simulator's MAC. The paper treats bitrate adaptation as "the single
// most important factor in performance under the MAC's control" and
// cites SampleRate [Bicket05] as a reasonable algorithm; §7 notes such
// algorithms reach the optimal rate but may take a while getting
// there. Implemented here:
//
//   - SampleRate: per-rate EWMA of average transmission time with
//     periodic probing of non-current rates, after Bicket's design.
//   - ARF: the classic success/failure counting scheme, as a simpler
//     baseline.
//
// The oracle rate selection the paper's experiments used — repeat the
// whole run at each rate, keep the best (§4) — is a harness-level
// sweep in internal/testbed, not a RateSelector.
package rate

import (
	"math"

	"carriersense/internal/capacity"
	"carriersense/internal/phy"
	"carriersense/internal/sim"
)

// SampleRate implements Bicket's SampleRate: it tracks an exponentially
// weighted estimate of per-frame transmission time (including losses)
// for every rate, sends most frames at the rate with the lowest
// estimated time, and spends a fraction of frames probing other rates
// that could plausibly do better.
type SampleRate struct {
	table capacity.RateTable
	// ProbeFraction is the share of frames used to sample non-best
	// rates (Bicket uses 10%).
	ProbeFraction float64
	// EWMA smoothing factor for observed airtime (weight on the new
	// sample).
	Alpha float64

	perDst map[phy.NodeID]*sampleState
	seq    uint64
}

type sampleState struct {
	// avgTxTime[i] is the EWMA estimate of the average time to deliver
	// one frame at table[i], in nanoseconds, accounting for losses
	// (a lost frame contributes its airtime with no delivery).
	avgTxTime []float64
	// successive failures at each rate; rates with ≥4 consecutive
	// failures are skipped until probed again (Bicket's rule).
	fails     []int
	tries     []uint64
	oks       []uint64
	nextProbe int
}

// NewSampleRate creates a SampleRate selector over the given table.
func NewSampleRate(table capacity.RateTable) *SampleRate {
	return &SampleRate{
		table:         table,
		ProbeFraction: 0.1,
		Alpha:         0.3,
		perDst:        make(map[phy.NodeID]*sampleState),
	}
}

func (sr *SampleRate) state(dst phy.NodeID) *sampleState {
	st, ok := sr.perDst[dst]
	if !ok {
		n := len(sr.table)
		st = &sampleState{
			avgTxTime: make([]float64, n),
			fails:     make([]int, n),
			tries:     make([]uint64, n),
			oks:       make([]uint64, n),
		}
		// Optimistic initialization: assume lossless delivery, so the
		// estimated time is the raw airtime and higher rates start
		// attractive (Bicket starts at the highest rate).
		for i, r := range sr.table {
			st.avgTxTime[i] = airtimeNanos(r, refBytes)
		}
		sr.perDst[dst] = st
	}
	return st
}

const refBytes = 1400

// airtimeNanos approximates the airtime of a frame at rate r,
// including the PHY family's preamble overhead.
func airtimeNanos(r capacity.Rate, bytes int) float64 {
	if r.Modulation == capacity.DSSS {
		return 192e3 + float64(8*bytes)/r.Mbps*1e3
	}
	bits := 16 + 8*bytes + 6
	symbols := math.Ceil(float64(bits) / float64(r.BitsPerSymbol))
	return 20e3 + symbols*4e3
}

// Select implements mac.RateSelector.
func (sr *SampleRate) Select(dst phy.NodeID) capacity.Rate {
	st := sr.state(dst)
	sr.seq++
	best := sr.bestIndex(st)
	// Probe a different rate every 1/ProbeFraction frames.
	period := uint64(1 / sr.ProbeFraction)
	if period > 0 && sr.seq%period == 0 {
		if probe, ok := sr.probeIndex(st, best); ok {
			return sr.table[probe]
		}
	}
	return sr.table[best]
}

// bestIndex returns the rate minimizing estimated per-frame time.
func (sr *SampleRate) bestIndex(st *sampleState) int {
	best, bestTime := 0, math.Inf(1)
	for i := range sr.table {
		if st.fails[i] >= 4 {
			continue
		}
		if st.avgTxTime[i] < bestTime {
			best, bestTime = i, st.avgTxTime[i]
		}
	}
	return best
}

// probeIndex picks the next rate worth sampling: one whose lossless
// airtime could beat the current best estimate (Bicket's criterion —
// never sample a rate that couldn't win even with zero loss).
func (sr *SampleRate) probeIndex(st *sampleState, best int) (int, bool) {
	bestTime := st.avgTxTime[best]
	n := len(sr.table)
	for k := 0; k < n; k++ {
		i := (st.nextProbe + k) % n
		if i == best || st.fails[i] >= 8 {
			continue
		}
		if airtimeNanos(sr.table[i], refBytes) < bestTime {
			st.nextProbe = (i + 1) % n
			return i, true
		}
	}
	return 0, false
}

// Update implements mac.RateSelector.
func (sr *SampleRate) Update(dst phy.NodeID, rate capacity.Rate, success bool, airtime sim.Time) {
	st := sr.state(dst)
	idx := -1
	for i, r := range sr.table {
		if r.Mbps == rate.Mbps {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	st.tries[idx]++
	sample := float64(airtime)
	if success {
		st.oks[idx]++
		st.fails[idx] = 0
	} else {
		st.fails[idx]++
		// A failed frame consumed its airtime and delivered nothing;
		// penalize by scaling with the observed loss ratio so the
		// estimate converges to airtime/deliveryRate.
		loss := 1 - float64(st.oks[idx])/float64(st.tries[idx])
		sample = sample * (1 + 4*loss)
	}
	st.avgTxTime[idx] = (1-sr.Alpha)*st.avgTxTime[idx] + sr.Alpha*sample
}

// ARF is the classic Automatic Rate Fallback baseline: step the rate
// up after a run of successes, down after consecutive failures.
type ARF struct {
	table capacity.RateTable
	// UpAfter successes raises the rate; DownAfter consecutive
	// failures lowers it.
	UpAfter, DownAfter int

	perDst map[phy.NodeID]*arfState
}

type arfState struct {
	idx       int
	successes int
	failures  int
}

// NewARF creates an ARF selector starting at the lowest rate.
func NewARF(table capacity.RateTable) *ARF {
	return &ARF{table: table, UpAfter: 10, DownAfter: 2, perDst: make(map[phy.NodeID]*arfState)}
}

func (a *ARF) state(dst phy.NodeID) *arfState {
	st, ok := a.perDst[dst]
	if !ok {
		st = &arfState{}
		a.perDst[dst] = st
	}
	return st
}

// Select implements mac.RateSelector.
func (a *ARF) Select(dst phy.NodeID) capacity.Rate {
	return a.table[a.state(dst).idx]
}

// Update implements mac.RateSelector.
func (a *ARF) Update(dst phy.NodeID, _ capacity.Rate, success bool, _ sim.Time) {
	st := a.state(dst)
	if success {
		st.successes++
		st.failures = 0
		if st.successes >= a.UpAfter && st.idx < len(a.table)-1 {
			st.idx++
			st.successes = 0
		}
	} else {
		st.failures++
		st.successes = 0
		if st.failures >= a.DownAfter && st.idx > 0 {
			st.idx--
			st.failures = 0
		}
	}
}
