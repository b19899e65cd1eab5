// Package phy models the physical layer of the packet simulator: a
// shared wireless medium with cumulative interference, per-radio
// clear-channel assessment (CCA), preamble detection and capture, and
// frame error evaluation from piecewise SINR.
//
// Fidelity choices follow §4 of the paper:
//
//   - No receive abort: once a radio locks onto a preamble it stays
//     locked until that frame ends, even if a stronger frame arrives —
//     the paper notes its hardware ran this way and credits it with
//     some of the concurrency crashes in the long-range data.
//   - Frame errors accumulate per interference segment: each interval
//     of constant interference contributes independent per-byte
//     survival at its own SINR, so a brief strong collision damages a
//     frame roughly in proportion to the bytes it overlaps.
//   - CCA is energy detection against a per-radio threshold, plus
//     (optionally) preamble carrier sense while locked on a frame.
//     Per-radio thresholds support the "threshold asymmetry" pathology
//     of §5.
//
// Hot-path design: every dB-domain quantity that the per-frame loops
// consult — noise floors, CCA thresholds, transmit powers, preamble
// sensitivity, capture SINR — is converted to linear milliwatts once,
// at configuration time, not per query. Channels that can supply
// linear-scale gains directly (the testbed's precomputed gain matrix)
// implement LinearChannel and skip the dB conversion entirely; the
// per-frame fading draw is cached as a linear factor per (transmission,
// radio). Transmission records are pooled on the Medium and event
// scheduling uses the simulator's argument-passing form, so a saturated
// run allocates nothing per frame. In-flight transmissions live in a
// slice in air-start order, making every interference sum — and
// therefore every simulation — deterministic (a map here would
// randomize float summation order).
package phy

import (
	"fmt"
	"math"

	"carriersense/internal/capacity"
	"carriersense/internal/rng"
	"carriersense/internal/sim"
)

// NodeID identifies a radio on the medium.
type NodeID int

// Broadcast is the destination for broadcast frames (the paper's
// experiments used broadcast packets).
const Broadcast NodeID = -1

// Channel supplies pairwise link gains in dB (negative = loss). The
// testbed package provides realizations with path loss, shadowing and
// floor attenuation baked in. Implementations must be symmetric unless
// deliberately modeling asymmetric hardware.
type Channel interface {
	GainDB(from, to NodeID) float64
}

// LinearChannel is an optional extension of Channel supplying the
// linear-scale power gain 10^(GainDB/10) directly. The medium prefers
// it on every per-frame power query, hoisting the dB-to-linear
// conversion out of the event loop; implementations precompute the
// linear matrix once per realization (see testbed.Generate).
type LinearChannel interface {
	Channel
	GainLin(from, to NodeID) float64
}

// OutageChannel is an optional extension of Channel supplying per-link
// deep-fade probabilities that override Config.Fade.OutageProb. The
// testbed implements it: burst losses are a property of a particular
// path (its delay spread, its exposure to ambient traffic), not of the
// radio.
type OutageChannel interface {
	Channel
	OutageProbability(from, to NodeID) float64
}

// Config holds medium-wide PHY parameters. Zero value is unusable; use
// DefaultConfig.
type Config struct {
	// NoiseFloorDBm is the thermal noise floor (paper: ≈ -95 dBm).
	NoiseFloorDBm float64
	// CCAThresholdDBm is the default energy-detection busy threshold.
	CCAThresholdDBm float64
	// PreambleSensitivityDBm is the minimum RSSI at which a preamble
	// can be detected and locked.
	PreambleSensitivityDBm float64
	// PreambleCaptureSINRdB is the minimum SINR at frame start for a
	// radio to acquire the preamble.
	PreambleCaptureSINRdB float64
	// PreambleCarrierSense makes CCA report busy while a radio is
	// locked on a reception, regardless of energy level (the
	// preamble-based carrier sense common hardware layers on top of
	// energy detection).
	PreambleCarrierSense bool
	// PLCPOverhead is the preamble + signal field duration prepended
	// to every frame (20 µs for 802.11a).
	PLCPOverhead sim.Time
	// SymbolDuration is the OFDM symbol time (4 µs for 802.11a).
	SymbolDuration sim.Time
	// TxTurnaround is the delay between a MAC's decision to transmit
	// and energy actually appearing on the air (RX/TX switch plus
	// propagation). Two stations deciding within this window cannot
	// see each other and collide — the vulnerability window behind
	// the "slot collision" pathology of §5. Zero makes carrier sense
	// unphysically instantaneous.
	TxTurnaround sim.Time
	// Fade is the per-frame, per-link residual fading model: the
	// appendix argues wideband channels reduce multipath fading "to
	// the equivalent of a few dB variation" plus occasional deep
	// frequency-selective fades, and §4.1 invokes time variation of
	// the channel to explain carrier sense occasionally beating pure
	// concurrency. Each (transmission, receiver) pair draws one dB
	// offset for the frame's lifetime.
	Fade capacity.FadeModel
}

// DefaultConfig returns 802.11a-mode parameters matching the paper's
// testbed conventions.
func DefaultConfig() Config {
	return Config{
		NoiseFloorDBm:          -95,
		CCAThresholdDBm:        -82,
		PreambleSensitivityDBm: -92,
		PreambleCaptureSINRdB:  4,
		PreambleCarrierSense:   true,
		PLCPOverhead:           20 * sim.Microsecond,
		SymbolDuration:         4 * sim.Microsecond,
		TxTurnaround:           1 * sim.Microsecond,
		Fade:                   capacity.DefaultFade(),
	}
}

// DSSSPreamble is the 802.11b long preamble + PLCP header airtime.
const DSSSPreamble = 192 * sim.Microsecond

// FrameDuration returns the airtime of a frame of the given length at
// the given rate. OFDM rates pay the PLCP overhead plus whole 4 µs
// symbols (16 service bits + 6 tail bits per 802.11a); DSSS rates pay
// the 192 µs long preamble plus the payload bit-serially at the
// nominal rate.
func (c Config) FrameDuration(bytes int, rate capacity.Rate) sim.Time {
	if rate.Modulation == capacity.DSSS {
		payloadMicros := float64(8*bytes) / rate.Mbps
		return DSSSPreamble + sim.FromMicros(payloadMicros)
	}
	bits := 16 + 8*bytes + 6
	symbols := (bits + rate.BitsPerSymbol - 1) / rate.BitsPerSymbol
	return c.PLCPOverhead + sim.Time(symbols)*c.SymbolDuration
}

// dbLn converts a dB exponent to a natural one: 10^(x/10) = e^(x·dbLn).
// math.Exp is substantially cheaper than math.Pow.
const dbLn = math.Ln10 / 10

// DBToLin converts dB (or dBm) to a linear factor (or mW). It is the
// one conversion every linear-scale cache in the simulator goes
// through — the testbed's gain matrix included — so bit-identity
// between precomputed and on-the-fly paths holds by construction.
func DBToLin(db float64) float64 { return math.Exp(dbLn * db) }

// FrameKind distinguishes MAC frame types on the air.
type FrameKind int

// Frame kinds.
const (
	FrameData FrameKind = iota
	FrameACK
	FrameRTS
	FrameCTS
)

// String returns the frame kind mnemonic.
func (k FrameKind) String() string {
	switch k {
	case FrameData:
		return "DATA"
	case FrameACK:
		return "ACK"
	case FrameRTS:
		return "RTS"
	case FrameCTS:
		return "CTS"
	default:
		return "?"
	}
}

// Frame is one MAC frame on the air.
type Frame struct {
	Seq   uint64
	Src   NodeID
	Dst   NodeID // Broadcast or a specific node
	Kind  FrameKind
	Bytes int
	Rate  capacity.Rate
	// NAV is the network allocation vector carried by RTS/CTS frames:
	// how long overhearers should treat the medium as reserved after
	// this frame ends.
	NAV sim.Time
}

// transmission is a frame in flight. Records are pooled on the Medium:
// one is acquired per Transmit and released when the frame leaves the
// air, so a saturated run recycles a handful of records instead of
// allocating one (plus a fading map) per frame.
type transmission struct {
	frame      Frame
	start, end sim.Time
	txPowerDBm float64
	txPowerMw  float64
	// fadeLin caches the per-receiver linear fading factor for this
	// frame, indexed by radio ordinal, so every power query during the
	// frame's lifetime sees one consistent channel state. 0 means "not
	// yet drawn" (a drawn factor is always positive).
	fadeLin []float64
}

// RxResult reports a completed reception attempt to a listener.
type RxResult struct {
	Frame Frame
	OK    bool    // frame decoded successfully
	SINR  float64 // time-averaged SINR over the locked reception, linear
}

// SINRdB returns the reception's time-averaged SINR in dB.
func (r RxResult) SINRdB() float64 { return 10 * math.Log10(r.SINR) }

// reception tracks a radio locked onto a frame. Each radio embeds one
// reception record (a radio locks at most one frame at a time), so
// locking allocates nothing.
type reception struct {
	tx        *transmission
	signalMw  float64 // received signal power, linear mW
	survival  float64 // accumulated survival probability
	segStart  sim.Time
	interfMw  float64 // current other-transmission power at the radio
	weightedI float64 // time-integral of interference power (mW·ns)
}

// Radio is one node's PHY. Create via Medium.AddRadio.
type Radio struct {
	id         NodeID
	ord        int // index in Medium.ordered; fadeLin cache slot
	medium     *Medium
	txPowerDBm float64
	txPowerMw  float64

	// ccaOffsetDB shifts this radio's CCA threshold from the medium
	// default (threshold asymmetry pathology).
	ccaOffsetDB float64
	// noiseOffsetDB shifts this radio's noise floor from the medium
	// default (hardware noise floor variation, footnote 20).
	noiseOffsetDB float64

	// Linear-scale caches of the dB configuration above; recomputed on
	// every setter so the event loop never converts dB.
	noiseMw     float64
	ccaThreshMw float64

	transmitting *transmission
	rx           *reception
	rxData       reception // storage rx points into while locked
	ccaBusy      bool

	// OnCCA, when non-nil, is called on every CCA busy/idle
	// transition. The MAC uses it to freeze and resume backoff.
	OnCCA func(busy bool)
	// OnRx, when non-nil, is called when a locked reception completes
	// (successfully or not).
	OnRx func(RxResult)
	// OnTxDone, when non-nil, is called when this radio's own
	// transmission leaves the air.
	OnTxDone func(Frame)
}

// ID returns the radio's node ID.
func (r *Radio) ID() NodeID { return r.id }

// SetCCAOffsetDB shifts this radio's CCA threshold relative to the
// medium default (positive = less sensitive, defers less).
func (r *Radio) SetCCAOffsetDB(db float64) {
	r.ccaOffsetDB = db
	r.ccaThreshMw = DBToLin(r.medium.cfg.CCAThresholdDBm + db)
}

// SetNoiseOffsetDB shifts this radio's noise floor.
func (r *Radio) SetNoiseOffsetDB(db float64) {
	r.noiseOffsetDB = db
	r.noiseMw = DBToLin(r.medium.cfg.NoiseFloorDBm + db)
}

// TxPowerDBm returns the radio's transmit power.
func (r *Radio) TxPowerDBm() float64 { return r.txPowerDBm }

// Transmitting reports whether the radio is currently on the air.
func (r *Radio) Transmitting() bool { return r.transmitting != nil }

// Receiving reports whether the radio is locked on a frame.
func (r *Radio) Receiving() bool { return r.rx != nil }

// Medium is the shared wireless channel: it tracks all in-flight
// transmissions, computes per-radio power sums, and drives every
// radio's CCA and reception state.
type Medium struct {
	sim    *sim.Simulator
	ch     Channel
	lin    LinearChannel // non-nil when ch supplies linear gains
	oc     OutageChannel // non-nil when ch supplies per-link outage probs
	cfg    Config
	src    *rng.Source
	radios map[NodeID]*Radio
	// ordered keeps radios in registration order: all medium-wide
	// iteration uses it so that callback order — and therefore every
	// simulation — is deterministic (Go map order is randomized).
	ordered []*Radio
	// active holds in-flight transmissions in air-start order; the
	// fixed order keeps interference sums (float addition is not
	// associative) deterministic.
	active []*transmission
	txPool []*transmission
	seq    uint64

	// Linear-scale caches of medium-wide thresholds.
	preambleSensMw float64
	captureSINRLin float64
	fadeZero       bool

	// Pre-bound event callbacks, so Transmit schedules with At1 instead
	// of allocating two closures per frame.
	goLiveFn func(any)
	endTxFn  func(any)
}

// NewMedium creates a medium over the given channel realization.
func NewMedium(s *sim.Simulator, ch Channel, cfg Config, src *rng.Source) *Medium {
	m := &Medium{
		sim:            s,
		ch:             ch,
		cfg:            cfg,
		src:            src,
		radios:         make(map[NodeID]*Radio),
		preambleSensMw: DBToLin(cfg.PreambleSensitivityDBm),
		captureSINRLin: DBToLin(cfg.PreambleCaptureSINRdB),
		fadeZero:       cfg.Fade.Zero(),
	}
	m.lin, _ = ch.(LinearChannel)
	m.oc, _ = ch.(OutageChannel)
	m.goLiveFn = func(a any) { m.goLive(a.(*transmission)) }
	m.endTxFn = func(a any) { m.endTransmission(a.(*transmission)) }
	return m
}

// Config returns the medium's PHY configuration.
func (m *Medium) Config() Config { return m.cfg }

// Sim returns the simulator driving this medium.
func (m *Medium) Sim() *sim.Simulator { return m.sim }

// AddRadio registers a radio with the given ID and transmit power.
func (m *Medium) AddRadio(id NodeID, txPowerDBm float64) *Radio {
	if _, dup := m.radios[id]; dup {
		panic(fmt.Sprintf("phy: duplicate radio %d", id))
	}
	// Late registration: transmissions already committed cache fading
	// per radio ordinal, so grow their caches to cover the newcomer
	// (every outstanding transmission is some radio's transmitting,
	// whether or not it has gone live yet).
	n := len(m.ordered) + 1
	for _, rr := range m.ordered {
		if tx := rr.transmitting; tx != nil && len(tx.fadeLin) < n {
			grown := make([]float64, n)
			copy(grown, tx.fadeLin)
			tx.fadeLin = grown
		}
	}
	r := &Radio{
		id:          id,
		ord:         len(m.ordered),
		medium:      m,
		txPowerDBm:  txPowerDBm,
		txPowerMw:   DBToLin(txPowerDBm),
		noiseMw:     DBToLin(m.cfg.NoiseFloorDBm),
		ccaThreshMw: DBToLin(m.cfg.CCAThresholdDBm),
	}
	m.radios[id] = r
	m.ordered = append(m.ordered, r)
	return r
}

// Radio returns the radio with the given ID, or nil.
func (m *Medium) Radio(id NodeID) *Radio { return m.radios[id] }

// gainLin returns the linear power gain of the from→to link.
func (m *Medium) gainLin(from, to NodeID) float64 {
	if m.lin != nil {
		return m.lin.GainLin(from, to)
	}
	return DBToLin(m.ch.GainDB(from, to))
}

// rxPowerMw returns the linear received power (mW) of tx at radio r,
// including the frame's per-link fading draw.
func (m *Medium) rxPowerMw(tx *transmission, r *Radio) float64 {
	p := tx.txPowerMw * m.gainLin(tx.frame.Src, r.id)
	if !m.fadeZero {
		f := tx.fadeLin[r.ord]
		if f == 0 {
			f = m.drawFade(tx, r)
		}
		p *= f
	}
	return p
}

// drawFade draws and caches the frame's fading factor at radio r.
func (m *Medium) drawFade(tx *transmission, r *Radio) float64 {
	fade := m.src.Normal(0, m.cfg.Fade.SigmaDB)
	p := m.cfg.Fade.OutageProb
	if m.oc != nil {
		p = m.oc.OutageProbability(tx.frame.Src, r.id)
	}
	if p > 0 && m.src.Float64() < p {
		fade -= m.cfg.Fade.OutageDepthDB
	}
	f := DBToLin(fade)
	tx.fadeLin[r.ord] = f
	return f
}

// interferenceMwAt returns the total power (mW) of all active
// transmissions at radio r, excluding any transmission in skip and
// excluding r's own transmission. Summation follows air-start order.
func (m *Medium) interferenceMwAt(r *Radio, skip *transmission) float64 {
	total := 0.0
	for _, tx := range m.active {
		if tx == skip || tx.frame.Src == r.id {
			continue
		}
		total += m.rxPowerMw(tx, r)
	}
	return total
}

// CCABusy reports the instantaneous clear channel assessment at radio
// r: busy while transmitting, while locked on a preamble (if preamble
// carrier sense is enabled), or while total received energy exceeds
// the radio's threshold.
func (m *Medium) CCABusy(r *Radio) bool {
	if r.transmitting != nil {
		return true
	}
	if m.cfg.PreambleCarrierSense && r.rx != nil {
		return true
	}
	return m.interferenceMwAt(r, nil) > r.ccaThreshMw
}

// CCABusy reports the radio's current clear channel assessment.
func (r *Radio) CCABusy() bool { return r.medium.CCABusy(r) }

// MediumConfig returns the PHY configuration of the medium the radio
// is attached to.
func (r *Radio) MediumConfig() Config { return r.medium.cfg }

// RSSIFromDBm returns the long-run received signal strength at this
// radio for transmissions from the given node.
func (r *Radio) RSSIFromDBm(from NodeID) float64 {
	return r.medium.RSSIdBm(from, r.id)
}

// RSSIdBm returns the long-run received signal strength at radio to
// from radio from: transmit power plus channel gain. This is the
// "sender-sender RSSI" metric of Figures 11 and 13.
func (m *Medium) RSSIdBm(from, to NodeID) float64 {
	f := m.radios[from]
	return f.txPowerDBm + m.ch.GainDB(from, to)
}

// acquireTx claims a pooled transmission record sized to the current
// radio population.
func (m *Medium) acquireTx() *transmission {
	n := len(m.txPool)
	if n == 0 {
		return &transmission{fadeLin: make([]float64, len(m.ordered))}
	}
	tx := m.txPool[n-1]
	m.txPool[n-1] = nil
	m.txPool = m.txPool[:n-1]
	if len(tx.fadeLin) < len(m.ordered) {
		tx.fadeLin = make([]float64, len(m.ordered))
	}
	return tx
}

// releaseTx clears the record's fading cache and returns it to the
// pool. Callers must not retain tx past this point.
func (m *Medium) releaseTx(tx *transmission) {
	for i := range tx.fadeLin {
		tx.fadeLin[i] = 0
	}
	m.txPool = append(m.txPool, tx)
}

// Transmit commits radio r to sending a frame. Energy appears on the
// air after the configured TxTurnaround — once committed, the radio
// cannot abort, so two stations deciding within the turnaround window
// collide without ever sensing each other. It returns the transmission
// end time.
func (r *Radio) Transmit(frame Frame) sim.Time {
	m := r.medium
	if r.transmitting != nil {
		panic(fmt.Sprintf("phy: radio %d already transmitting", r.id))
	}
	frame.Src = r.id
	m.seq++
	frame.Seq = m.seq
	dur := m.cfg.FrameDuration(frame.Bytes, frame.Rate)
	airStart := m.sim.Now() + m.cfg.TxTurnaround
	tx := m.acquireTx()
	tx.frame = frame
	tx.start = airStart
	tx.end = airStart + dur
	tx.txPowerDBm = r.txPowerDBm
	tx.txPowerMw = r.txPowerMw
	// A radio that commits to transmitting abandons any reception in
	// progress (half-duplex).
	if r.rx != nil {
		r.rx = nil
	}
	r.transmitting = tx
	if m.cfg.TxTurnaround > 0 {
		m.sim.At1(airStart, m.goLiveFn, tx)
	} else {
		m.goLive(tx)
	}
	m.sim.At1(tx.end, m.endTxFn, tx)
	return tx.end
}

// goLive puts a committed transmission on the air.
func (m *Medium) goLive(tx *transmission) {
	m.active = append(m.active, tx)
	m.onAirChange(tx, true)
}

// endTransmission removes tx from the air, resolves receptions, and
// recycles the record.
func (m *Medium) endTransmission(tx *transmission) {
	for i, a := range m.active {
		if a == tx {
			m.active = append(m.active[:i], m.active[i+1:]...)
			break
		}
	}
	sender := m.radios[tx.frame.Src]
	sender.transmitting = nil
	m.onAirChange(tx, false)
	if sender.OnTxDone != nil {
		sender.OnTxDone(tx.frame)
	}
	// Resolve every radio locked on this transmission.
	for _, r := range m.ordered {
		if r.rx != nil && r.rx.tx == tx {
			m.finishReception(r)
		}
	}
	// Senders' CCA may have changed by their own TX ending.
	m.refreshCCA()
	m.releaseTx(tx)
}

// onAirChange updates every radio's reception segments and attempts
// preamble locks when a transmission starts.
func (m *Medium) onAirChange(tx *transmission, started bool) {
	now := m.sim.Now()
	for _, r := range m.ordered {
		if r.rx != nil && r.rx.tx != tx {
			// Close the current interference segment and open a new
			// one reflecting the changed air.
			m.closeSegment(r, now)
			r.rx.interfMw = m.interferenceMwAt(r, r.rx.tx)
		}
	}
	if started {
		m.tryLock(tx)
	}
	m.refreshCCA()
}

// tryLock offers a newly started transmission to every idle radio.
func (m *Medium) tryLock(tx *transmission) {
	for _, r := range m.ordered {
		if r.id == tx.frame.Src || r.transmitting != nil || r.rx != nil {
			// Busy radios miss the preamble entirely: the origin of
			// the "chain collision" pathology (§5) — a node
			// transmitting over a preamble cannot defer to it.
			continue
		}
		sig := m.rxPowerMw(tx, r)
		if sig < m.preambleSensMw {
			continue
		}
		interf := m.interferenceMwAt(r, tx)
		if sig < m.captureSINRLin*(r.noiseMw+interf) {
			continue
		}
		r.rxData = reception{
			tx:       tx,
			signalMw: sig,
			survival: 1,
			segStart: m.sim.Now(),
			interfMw: interf,
		}
		r.rx = &r.rxData
	}
}

// closeSegment folds the interference segment [rx.segStart, now) into
// the reception's survival probability.
func (m *Medium) closeSegment(r *Radio, now sim.Time) {
	rx := r.rx
	if rx == nil || now <= rx.segStart {
		return
	}
	segDur := now - rx.segStart
	sinr := rx.signalMw / (r.noiseMw + rx.interfMw)
	sinrDB := 10 * math.Log10(sinr)
	// Fraction of the frame's airtime this segment covers; per-byte
	// survival at this SINR raised to the bytes in the segment.
	per := capacity.PER(rx.tx.frame.Rate, sinrDB, rx.tx.frame.Bytes)
	if per > 0 {
		frameDur := rx.tx.end - rx.tx.start
		frac := float64(segDur) / float64(frameDur)
		rx.survival *= math.Pow(1-per, frac)
	}
	rx.weightedI += float64(segDur) * rx.interfMw
	rx.segStart = now
}

// finishReception resolves a completed reception on radio r.
func (m *Medium) finishReception(r *Radio) {
	rx := r.rx
	m.closeSegment(r, m.sim.Now())
	r.rx = nil
	frameDur := float64(rx.tx.end - rx.tx.start)
	avgInterf := rx.weightedI / frameDur
	sinr := rx.signalMw / (r.noiseMw + avgInterf)
	ok := m.src.Float64() < rx.survival
	if r.OnRx != nil {
		r.OnRx(RxResult{Frame: rx.tx.frame, OK: ok, SINR: sinr})
	}
}

// refreshCCA recomputes CCA for all radios and fires transitions.
func (m *Medium) refreshCCA() {
	for _, r := range m.ordered {
		busy := m.CCABusy(r)
		if busy != r.ccaBusy {
			r.ccaBusy = busy
			if r.OnCCA != nil {
				r.OnCCA(busy)
			}
		}
	}
}

// SINRdBBetween returns the SINR a frame from src would enjoy at dst
// right now, given current interference — used by oracle tooling, not
// by the protocol path.
func (m *Medium) SINRdBBetween(src, dst NodeID) float64 {
	from, to := m.radios[src], m.radios[dst]
	sig := from.txPowerMw * m.gainLin(src, dst)
	interf := m.interferenceMwAt(to, nil)
	return 10 * math.Log10(sig/(to.noiseMw+interf))
}
