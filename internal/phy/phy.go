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
//     frame roughly in proportion to the bytes it overlaps. The frame
//     is delivered when a uniform draw falls below its survival
//     S = Π (1 − PER_i)^frac_i. Each segment adds bounds on its term
//     of ln S from a table, and only a draw that falls between the
//     bounds computes S exactly from capacity.PER, so every decision
//     is the one the exact S gives (survival.go).
//   - CCA is energy detection against the medium's threshold, plus
//     (optionally) preamble carrier sense while locked on a frame.
//
// Hot-path design: every dB-domain quantity that the per-frame loops
// consult — noise floors, CCA thresholds, transmit powers, preamble
// sensitivity, capture SINR — is converted to linear milliwatts once,
// at configuration time, not per query. Channels that can supply
// linear-scale gains directly (the testbed's precomputed gain matrix)
// implement LinearChannel and skip the dB conversion entirely; the
// per-frame fading draw is cached as a linear factor per (transmission,
// radio). Closing an interference segment does no transcendental math:
// its SINR indexes the bounds table of the frame's rate and length
// (built once per process, 16 buckets per octave) through the bits of
// the float64, and the reception keeps the segment for the exact
// fallback (taken by under 1% of a bench-scale testbed run's
// receptions). Transmission records are pooled on the Medium and event
// scheduling uses the simulator's argument-passing form, so a saturated
// run allocates nothing per frame. In-flight transmissions live in a
// slice in air-start order, making every interference sum — and
// therefore every simulation — deterministic (a map here would
// randomize float summation order).
package phy

import (
	"fmt"
	"math"
	"sync/atomic"

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

// Frame is one MAC data frame on the air.
type Frame struct {
	Src   NodeID
	Dst   NodeID // Broadcast or a specific node
	Bytes int
	Rate  capacity.Rate
}

// transmission is a frame in flight. Records are pooled on the Medium:
// one is acquired per Transmit and released when the frame leaves the
// air, so a saturated run recycles a handful of records instead of
// allocating one (plus a fading map) per frame.
type transmission struct {
	frame      Frame
	start, end sim.Time
	txPowerMw  float64
	per        *perTable // survival bounds for the frame's rate and length
	// fadeLin caches the per-receiver linear fading factor for this
	// frame, indexed by radio ordinal, so every power query during the
	// frame's lifetime sees one consistent channel state. 0 means "not
	// yet drawn" (a drawn factor is always positive).
	fadeLin []float64
}

// RxResult reports a completed reception attempt to a listener.
type RxResult struct {
	Frame Frame
	OK    bool // frame decoded successfully
}

// reception tracks a radio locked onto a frame. Each radio embeds one
// reception record (a radio locks at most one frame at a time), so
// locking allocates nothing.
type reception struct {
	tx       *transmission
	signalMw float64 // received signal power, linear mW
	segStart sim.Time
	interfMw float64 // current other-transmission power at the radio
	// lnLo and lnHi bracket the log of the frame's survival over the
	// closed segments (see survival.go).
	lnLo, lnHi float64
	// exact is the reference survival of the segments folded out of
	// kept; kept[:n] are the closed segments after them.
	exact float64
	n     int
	kept  [keptSegments]segment
}

// Radio is one node's PHY. Create via Medium.AddRadio.
type Radio struct {
	id        NodeID
	ord       int // index in Medium.ordered; fadeLin cache slot
	medium    *Medium
	txPowerMw float64

	// Linear-scale noise floor and CCA threshold, so the event loop
	// never converts dB. SetNoiseOffsetDB recomputes noiseMw.
	noiseMw     float64
	ccaThreshMw float64

	transmitting *transmission
	rx           *reception
	rxData       reception // storage rx points into while locked
	// onCCA is the ListenCCA listener. sensed marks a radio whose
	// ccaBusy is kept current even without one: it has transmitted,
	// or it joined while frames were on the air (see refreshCCA).
	onCCA   func(busy bool)
	ccaBusy bool
	sensed  bool
	// OnRx, when non-nil, is called when a locked reception completes
	// (successfully or not).
	OnRx func(RxResult)
	// OnTxDone, when non-nil, is called when this radio's own
	// transmission leaves the air.
	OnTxDone func()
}

// ID returns the radio's node ID.
func (r *Radio) ID() NodeID { return r.id }

// ListenCCA installs fn (nil removes it) to be called on every CCA
// busy/idle transition from now on. The MAC listens to freeze and
// resume backoff. Call it between medium events, not from a radio
// callback.
func (r *Radio) ListenCCA(fn func(busy bool)) {
	r.catchUpCCA()
	r.onCCA = fn
}

// catchUpCCA brings ccaBusy up to date on a radio refreshCCA skips.
// Such a radio has every active frame's fading drawn already, so this
// draws nothing.
func (r *Radio) catchUpCCA() {
	if r.onCCA == nil && !r.sensed {
		r.ccaBusy = r.medium.CCABusy(r)
	}
}

// SetNoiseOffsetDB shifts this radio's noise floor from the medium
// default (hardware noise floor variation, footnote 20).
func (r *Radio) SetNoiseOffsetDB(db float64) {
	r.noiseMw = DBToLin(r.medium.cfg.NoiseFloorDBm + db)
}

// Transmitting reports whether the radio is currently on the air.
func (r *Radio) Transmitting() bool { return r.transmitting != nil }

// Medium is the shared wireless channel: it tracks all in-flight
// transmissions, computes per-radio power sums, and drives every
// radio's CCA and reception state.
type Medium struct {
	sim *sim.Simulator
	ch  Channel
	lin LinearChannel // non-nil when ch supplies linear gains
	oc  OutageChannel // non-nil when ch supplies per-link outage probs
	cfg Config
	src *rng.Source
	// ordered keeps radios in registration order: all medium-wide
	// iteration uses it so that callback order — and therefore every
	// simulation — is deterministic.
	ordered []*Radio
	// active holds in-flight transmissions in air-start order; the
	// fixed order keeps interference sums (float addition is not
	// associative) deterministic.
	active []*transmission
	txPool []*transmission
	// per is the survival table of the last frame sent, which every
	// frame of a fixed-rate run shares.
	per *perTable

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

// AddRadio registers a radio with the given ID and transmit power.
func (m *Medium) AddRadio(id NodeID, txPowerDBm float64) *Radio {
	if m.radio(id) != nil {
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
		txPowerMw:   DBToLin(txPowerDBm),
		noiseMw:     DBToLin(m.cfg.NoiseFloorDBm),
		ccaThreshMw: DBToLin(m.cfg.CCAThresholdDBm),
		// The frames on the air now never offered themselves to this
		// radio, so its CCA would draw their fading: keep it current.
		sensed: len(m.active) > 0,
	}
	m.ordered = append(m.ordered, r)
	return r
}

// radio returns the radio with the given ID, or nil.
func (m *Medium) radio(id NodeID) *Radio {
	for _, r := range m.ordered {
		if r.id == id {
			return r
		}
	}
	return nil
}

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
// collide without ever sensing each other.
func (r *Radio) Transmit(frame Frame) {
	m := r.medium
	if r.transmitting != nil {
		panic(fmt.Sprintf("phy: radio %d already transmitting", r.id))
	}
	// Frames that go live while this one is on the air skip this radio
	// in tryLock, so from now on its CCA may draw fading and must be
	// kept current in refreshCCA's order.
	r.catchUpCCA()
	r.sensed = true
	frame.Src = r.id
	dur := m.cfg.FrameDuration(frame.Bytes, frame.Rate)
	airStart := m.sim.Now() + m.cfg.TxTurnaround
	tx := m.acquireTx()
	tx.frame = frame
	tx.start = airStart
	tx.end = airStart + dur
	tx.txPowerMw = r.txPowerMw
	if p := m.per; p == nil || p.rate != frame.Rate || p.bytes != frame.Bytes {
		m.per = perTableFor(frame.Rate, frame.Bytes)
	}
	tx.per = m.per
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
	sender := m.radio(tx.frame.Src)
	sender.transmitting = nil
	m.onAirChange(tx, false)
	if sender.OnTxDone != nil {
		sender.OnTxDone()
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
			if g, ok := m.closeSegment(r, now); ok {
				r.rx.keep(g)
			}
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
			segStart: m.sim.Now(),
			interfMw: interf,
			exact:    1,
		}
		r.rx = &r.rxData
	}
}

// closeSegment ends the interference segment [rx.segStart, now) and
// adds it to the reception's survival bracket. It reports false when
// the segment is empty.
func (m *Medium) closeSegment(r *Radio, now sim.Time) (segment, bool) {
	rx := r.rx
	if now <= rx.segStart {
		return segment{}, false
	}
	g := segment{
		sinr: rx.signalMw / (r.noiseMw + rx.interfMw),
		frac: float64(now-rx.segStart) / float64(rx.tx.end-rx.tx.start),
	}
	rx.add(g)
	rx.segStart = now
	return g, true
}

// decisionCounts, when set (by tests), counts the receptions the
// medium resolves and those that needed the exact fallback.
var decisionCounts *struct{ receptions, exact atomic.Int64 }

// finishReception resolves a completed reception on radio r.
func (m *Medium) finishReception(r *Radio) {
	rx := r.rx
	last, hasLast := m.closeSegment(r, m.sim.Now())
	r.rx = nil
	ok, exact := rx.delivered(m.src.Float64(), last, hasLast)
	if c := decisionCounts; c != nil {
		c.receptions.Add(1)
		if exact {
			c.exact.Add(1)
		}
	}
	if r.OnRx != nil {
		r.OnRx(RxResult{Frame: rx.tx.frame, OK: ok})
	}
}

// refreshCCA recomputes CCA for all radios and fires transitions. It
// skips a radio with no listener that has never transmitted and
// joined an idle medium: tryLock or onAirChange has drawn every active
// frame's fading at it, so its assessment would draw nothing and tell
// nobody. catchUpCCA updates it when that changes.
func (m *Medium) refreshCCA() {
	for _, r := range m.ordered {
		if r.onCCA == nil && !r.sensed {
			continue
		}
		busy := m.CCABusy(r)
		if busy != r.ccaBusy {
			r.ccaBusy = busy
			if r.onCCA != nil {
				r.onCCA(busy)
			}
		}
	}
}
