package testbed

import (
	"context"
	"fmt"
	"math"

	"carriersense/internal/capacity"
	"carriersense/internal/mac"
	"carriersense/internal/phy"
	"carriersense/internal/rng"
	"carriersense/internal/sim"
)

// Mode is one of the paper's three measurement modes (§4): each
// two-pair combination is measured under multiplexing (each sender
// alone, one after another), concurrency (carrier sense disabled, both
// simultaneously), and carrier sense (default hardware CS, both
// simultaneously).
type Mode int

// Modes.
const (
	ModeMultiplexing Mode = iota
	ModeConcurrency
	ModeCarrierSense
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case ModeMultiplexing:
		return "multiplexing"
	case ModeConcurrency:
		return "concurrency"
	case ModeCarrierSense:
		return "carrier-sense"
	default:
		return "?"
	}
}

// ExperimentParams configures the §4 protocol.
type ExperimentParams struct {
	// Duration is the per-run send time (paper: 15 s; tests use less).
	Duration sim.Time
	// FrameBytes is the payload size (paper: 1400).
	FrameBytes int
	// Rates is the sweep set (paper: 6, 9, 12, 18, 24 Mb/s).
	Rates capacity.RateTable
	// MaxCombos caps how many two-pair combinations to measure.
	MaxCombos int
	// Seed drives combo selection and the PHY's error draws.
	Seed uint64
	// CCAThresholdDBm is the hardware carrier sense threshold.
	CCAThresholdDBm float64
	// EnergyOnlyCCA disables preamble-based carrier sense, leaving
	// pure energy detection — the compatibility-challenged CCA flavor
	// §6 discusses via [Aoki06]/[Rahul08] and the subject of the
	// preamble-versus-energy ablation bench.
	EnergyOnlyCCA bool
}

// DefaultExperiment returns the paper's methodology with a shortened
// default duration (callers wanting the full 15 s set Duration).
func DefaultExperiment() ExperimentParams {
	return ExperimentParams{
		Duration:        2 * sim.Second,
		FrameBytes:      1400,
		Rates:           capacity.TablePaperDriver,
		MaxCombos:       30,
		Seed:            1,
		CCAThresholdDBm: -82,
	}
}

// ComboResult is one two-pair measurement: the paper's unit of data,
// one vertical triple of points in Figures 10-13.
type ComboResult struct {
	Link1, Link2 Link
	// SenderRSSIdB is the average sender-sender RSSI in dB above the
	// noise floor (the x-axis of Figures 11 and 13); math.Inf(-1) when
	// below the detection threshold.
	SenderRSSIdB float64
	// Totals in packets per second of wall-clock time, after the
	// per-sender oracle rate sweep.
	Mux, Conc, CS float64
	// Base-rate (lowest rate) totals, for the §5 exposed-terminal
	// arithmetic.
	MuxBase, ConcBase, CSBase float64
	// CSDelivery is the delivered/sent ratio of the carrier sense runs
	// at each sender's best rate — the reliability the oracle rate
	// choice achieves (≈1 when adaptation has rate headroom, low when
	// links are pinned at an unreliable floor, §4.2's "adaptation
	// floor" effect).
	CSDelivery float64
}

// Optimal returns the per-combo max over strategies.
func (c ComboResult) Optimal() float64 {
	return math.Max(c.Mux, math.Max(c.Conc, c.CS))
}

// OptimalBase returns the base-rate max over strategies.
func (c ComboResult) OptimalBase() float64 {
	return math.Max(c.MuxBase, math.Max(c.ConcBase, c.CSBase))
}

// Summary aggregates an experiment the way the paper's §4.1/§4.2
// tables do: throughput averaged over all runs, with each strategy as
// a percentage of optimal.
type Summary struct {
	Class   RangeClass
	Combos  int
	Optimal float64 // pkt/s
	CS      float64
	Mux     float64
	Conc    float64
}

// CSFrac returns CS as a fraction of optimal.
func (s Summary) CSFrac() float64 { return frac(s.CS, s.Optimal) }

// MuxFrac returns multiplexing as a fraction of optimal.
func (s Summary) MuxFrac() float64 { return frac(s.Mux, s.Optimal) }

// ConcFrac returns concurrency as a fraction of optimal.
func (s Summary) ConcFrac() float64 { return frac(s.Conc, s.Optimal) }

func frac(x, total float64) float64 {
	if total == 0 {
		return 0
	}
	return x / total
}

// String renders the summary in the paper's table format.
func (s Summary) String() string {
	return fmt.Sprintf(
		"%s (%d combos)\n"+
			"  Optimal (max over strategies): %.0f packets / sec\n"+
			"  Carrier Sense: %.0f pkt/s (%.0f%% opt)\n"+
			"  Multiplexing:  %.0f pkt/s (%.0f%% opt)\n"+
			"  Concurrency:   %.0f pkt/s (%.0f%% opt)",
		s.Class, s.Combos, s.Optimal,
		s.CS, 100*s.CSFrac(),
		s.Mux, 100*s.MuxFrac(),
		s.Conc, 100*s.ConcFrac())
}

// ExperimentResult is the full outcome of one range-class experiment.
type ExperimentResult struct {
	Class  RangeClass
	Combos []ComboResult
}

// Summarize averages over all combos.
func (r ExperimentResult) Summarize() Summary {
	s := Summary{Class: r.Class, Combos: len(r.Combos)}
	for _, c := range r.Combos {
		s.Optimal += c.Optimal()
		s.CS += c.CS
		s.Mux += c.Mux
		s.Conc += c.Conc
	}
	if len(r.Combos) > 0 {
		n := float64(len(r.Combos))
		s.Optimal /= n
		s.CS /= n
		s.Mux /= n
		s.Conc /= n
	}
	return s
}

// RunExperiment executes the §4 protocol for one range class: select
// disjoint two-pair combinations from the qualifying links, then
// measure each under every mode and rate with per-sender oracle rate
// selection.
//
// Combo selection and seeding are planned up front (cheap and
// sequential); the replications themselves — the expensive part — are
// issued as testbed/combo sim-kernel requests through the installed
// montecarlo executor, as forked tasks of ctx's plan, and run in
// parallel, distributed, or from cache (see kernel.go). Results are
// assembled in combo order, so the experiment is bit-identical at any
// parallelism on any executor.
func RunExperiment(ctx context.Context, tb *Testbed, p ExperimentParams, class RangeClass) ExperimentResult {
	src := rng.New(p.Seed)
	links := tb.QualifyingLinks(class)
	src.Shuffle(len(links), func(i, j int) { links[i], links[j] = links[j], links[i] })
	combos := selectCombos(links, p.MaxCombos, src)
	seeds := make([]uint64, len(combos))
	for i := range seeds {
		seeds[i] = src.Uint64()
	}
	return ExperimentResult{Class: class, Combos: runCombos(ctx, tb, p, combos, seeds)}
}

// selectCombos greedily pairs up links into node-disjoint two-pair
// combinations.
func selectCombos(links []Link, maxCombos int, src *rng.Source) [][2]Link {
	var combos [][2]Link
	for i := 0; i < len(links) && len(combos) < maxCombos; i++ {
		a := links[i]
		for j := i + 1; j < len(links); j++ {
			b := links[j]
			if a.Src == b.Src || a.Src == b.Dst || a.Dst == b.Src || a.Dst == b.Dst {
				continue
			}
			combos = append(combos, [2]Link{a, b})
			// Remove b from further consideration by swapping it out.
			links[j] = links[len(links)-1]
			links = links[:len(links)-1]
			break
		}
	}
	return combos
}

// runCombo measures one two-pair combination under all modes/rates.
func runCombo(tb *Testbed, p ExperimentParams, l1, l2 Link, seed uint64) ComboResult {
	res := ComboResult{Link1: l1, Link2: l2}
	// Sender-sender RSSI in dB above the noise floor, averaged over
	// both directions; -Inf when below the preamble sensitivity.
	phyCfg := comboPhyConfig(tb, p)
	r12 := tb.RSSIdBm(l1.Src, l2.Src)
	r21 := tb.RSSIdBm(l2.Src, l1.Src)
	if r12 < phyCfg.PreambleSensitivityDBm && r21 < phyCfg.PreambleSensitivityDBm {
		res.SenderRSSIdB = math.Inf(-1)
	} else {
		res.SenderRSSIdB = ((r12 - tb.Params.NoiseFloorDBm) + (r21 - tb.Params.NoiseFloorDBm)) / 2
	}

	secs := p.Duration.Seconds()
	// Per (mode, rate): packet counts for each sender's receiver.
	bestByMode := func(mode Mode) (float64, float64) {
		best1, best2 := 0.0, 0.0
		del1, del2 := 0.0, 0.0
		for ri, rate := range p.Rates {
			cc := runComboOnce(tb, p, phyCfg, l1, l2, mode, rate, seed+uint64(ri)*31)
			c1, c2 := cc.got1, cc.got2
			if mode == ModeMultiplexing {
				// Each sender ran alone for Duration; under
				// multiplexing each owns half the wall clock.
				c1, c2 = c1/2, c2/2
			}
			r1 := float64(c1) / secs
			r2 := float64(c2) / secs
			if r1 > best1 {
				best1 = r1
				if cc.sent1 > 0 {
					del1 = float64(cc.got1) / float64(cc.sent1)
				}
			}
			if r2 > best2 {
				best2 = r2
				if cc.sent2 > 0 {
					del2 = float64(cc.got2) / float64(cc.sent2)
				}
			}
			if ri == 0 { // lowest rate = base rate
				switch mode {
				case ModeMultiplexing:
					res.MuxBase = r1 + r2
				case ModeConcurrency:
					res.ConcBase = r1 + r2
				case ModeCarrierSense:
					res.CSBase = r1 + r2
				}
			}
		}
		if mode == ModeCarrierSense {
			res.CSDelivery = (del1 + del2) / 2
		}
		return best1, best2
	}
	m1, m2 := bestByMode(ModeMultiplexing)
	res.Mux = m1 + m2
	c1, c2 := bestByMode(ModeConcurrency)
	res.Conc = c1 + c2
	s1, s2 := bestByMode(ModeCarrierSense)
	res.CS = s1 + s2
	return res
}

// comboPhyConfig is the PHY every replication of tb under p runs.
func comboPhyConfig(tb *Testbed, p ExperimentParams) phy.Config {
	cfg := phy.DefaultConfig()
	cfg.NoiseFloorDBm = tb.Params.NoiseFloorDBm
	cfg.CCAThresholdDBm = p.CCAThresholdDBm
	cfg.PreambleCarrierSense = !p.EnergyOnlyCCA
	cfg.Fade = tb.Params.Fade
	return cfg
}

// comboCounts carries one run's delivered and sent frame counts. A
// two-sender run also records the callbacks its simulator ran.
type comboCounts struct {
	got1, got2   uint64
	sent1, sent2 uint64
	events       uint64
}

// runComboOnce runs one simulation: the two senders (or one at a time
// for multiplexing) saturating broadcast traffic at the given rate.
// Returns packets received at each link's intended receiver along
// with the senders' transmit counts.
func runComboOnce(tb *Testbed, p ExperimentParams, phyCfg phy.Config, l1, l2 Link, mode Mode, rate capacity.Rate, seed uint64) comboCounts {
	if mode == ModeMultiplexing {
		c1, s1 := runSingle(tb, p, phyCfg, l1, rate, seed)
		c2, s2 := runSingle(tb, p, phyCfg, l2, rate, seed+1)
		return comboCounts{got1: c1, got2: c2, sent1: s1, sent2: s2}
	}
	src := rng.New(seed)
	s := sim.New()
	medium := phy.NewMedium(s, tb, phyCfg, src.Split())
	nodes := []phy.NodeID{l1.Src, l1.Dst, l2.Src, l2.Dst}
	radios := make(map[phy.NodeID]*phy.Radio, len(nodes))
	for _, id := range nodes {
		r := medium.AddRadio(id, tb.Params.TxPowerDBm)
		r.SetNoiseOffsetDB(tb.NoiseOffsetDB(id))
		radios[id] = r
	}
	macCfg := mac.DefaultConfig()
	macCfg.CarrierSense = mode == ModeCarrierSense
	var count1, count2 uint64
	attachReceiver(s, radios[l1.Dst], macCfg, src.Split(), l1.Src, &count1)
	attachReceiver(s, radios[l2.Dst], macCfg, src.Split(), l2.Src, &count2)
	st1 := mac.NewStation(s, radios[l1.Src], macCfg, src.Split(), rate)
	st2 := mac.NewStation(s, radios[l2.Src], macCfg, src.Split(), rate)
	st1.StartSaturated(phy.Broadcast, p.FrameBytes)
	st2.StartSaturated(phy.Broadcast, p.FrameBytes)
	s.Run(p.Duration)
	return comboCounts{
		got1: count1, got2: count2,
		sent1: st1.Stats.DataSent, sent2: st2.Stats.DataSent,
		events: s.EventsFired(),
	}
}

// runSingle measures one sender alone (the multiplexing baseline).
func runSingle(tb *Testbed, p ExperimentParams, phyCfg phy.Config, l Link, rate capacity.Rate, seed uint64) (delivered, sent uint64) {
	src := rng.New(seed)
	s := sim.New()
	medium := phy.NewMedium(s, tb, phyCfg, src.Split())
	txr := medium.AddRadio(l.Src, tb.Params.TxPowerDBm)
	txr.SetNoiseOffsetDB(tb.NoiseOffsetDB(l.Src))
	rxr := medium.AddRadio(l.Dst, tb.Params.TxPowerDBm)
	rxr.SetNoiseOffsetDB(tb.NoiseOffsetDB(l.Dst))
	macCfg := mac.DefaultConfig()
	var count uint64
	attachReceiver(s, rxr, macCfg, src.Split(), l.Src, &count)
	st := mac.NewStation(s, txr, macCfg, src.Split(), rate)
	st.StartSaturated(phy.Broadcast, p.FrameBytes)
	s.Run(p.Duration)
	return count, st.Stats.DataSent
}

// attachReceiver creates a passive station on a radio that counts
// successfully decoded data frames from the expected source.
func attachReceiver(s *sim.Simulator, r *phy.Radio, cfg mac.Config, src *rng.Source, expectSrc phy.NodeID, count *uint64) *mac.Station {
	st := mac.NewStation(s, r, cfg, src, capacity.Rate{})
	st.OnData = func(res phy.RxResult) {
		if res.Frame.Src == expectSrc {
			*count++
		}
	}
	return st
}

// ExposedTerminalStudy reproduces the §5 arithmetic on a short-range
// experiment result: how much bitrate adaptation alone buys over the
// base rate, how much perfect exposed-terminal exploitation buys at
// the base rate, and how little it adds on top of adaptation.
type ExposedTerminalStudy struct {
	// AdaptationGain is mean CS throughput at the best rate over mean
	// CS throughput at the base rate (paper: "more than doubles").
	AdaptationGain float64
	// ExposedGainBase is mean optimal over mean CS at the base rate
	// (paper: "just shy of 10%").
	ExposedGainBase float64
	// CombinedGain is mean optimal at best rates over mean CS at best
	// rates (paper: "only about 3%").
	CombinedGain float64
}

// StudyExposedTerminals computes the §5 comparison from a short-range
// experiment result.
func StudyExposedTerminals(r ExperimentResult) ExposedTerminalStudy {
	var csBest, csBase, optBase, optBest float64
	for _, c := range r.Combos {
		csBest += c.CS
		csBase += c.CSBase
		optBase += c.OptimalBase()
		optBest += c.Optimal()
	}
	study := ExposedTerminalStudy{}
	if csBase > 0 {
		study.AdaptationGain = csBest / csBase
		study.ExposedGainBase = optBase/csBase - 1
	}
	if csBest > 0 {
		study.CombinedGain = optBest/csBest - 1
	}
	return study
}
