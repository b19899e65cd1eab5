// Package mac implements an 802.11-style DCF CSMA/CA MAC on top of
// internal/phy: slotted binary-exponential backoff, DIFS/SIFS timing,
// optional ACKs with retries, optional RTS/CTS (always-on or the
// paper's §5 proposal of loss-triggered adaptive enablement), NAV
// honoring, and a carrier-sense-disabled "concurrency" mode matching
// the paper's experimental methodology ("we disable carrier sense and
// run all transmitters simultaneously").
//
// Pathology knobs called out in §5 are first-class: per-station CCA
// threshold offsets (threshold asymmetry), the limited initial
// contention window (slot collisions), and — emergent rather than
// configured — chain collisions, which arise naturally because a
// transmitting radio cannot detect preambles (see phy.Medium.tryLock).
package mac

import (
	"carriersense/internal/capacity"
	"carriersense/internal/phy"
	"carriersense/internal/rng"
	"carriersense/internal/sim"
)

// Config holds DCF timing and policy parameters. DefaultConfig returns
// 802.11a values.
type Config struct {
	SlotTime sim.Time
	SIFS     sim.Time
	DIFS     sim.Time
	CWMin    int // initial contention window (slots - 1)
	CWMax    int

	// CarrierSense false puts the station in the paper's concurrency
	// mode: the DCF state machine runs with identical timing (DIFS,
	// backoff) but CCA is forced idle, exactly how disabling clear
	// channel assessment behaves on real hardware. Keeping the timing
	// identical matters: the paper compares concurrency, multiplexing
	// and CS throughput head-to-head, so the modes must differ only
	// in deferral behavior, not in per-frame overhead.
	CarrierSense bool

	// UseACK enables per-frame acknowledgments and retries (the
	// two-packet DATA-ACK exchange of modern radios, §6). The paper's
	// own throughput runs used broadcast frames without ACKs.
	UseACK     bool
	RetryLimit int

	// RTS selects RTS/CTS operation.
	RTS RTSMode
	// RTSAdaptiveLossThreshold and RTSAdaptiveRSSIdBm parameterize
	// RTSAdaptive: protection turns on when recent delivery drops
	// below the loss threshold while the link RSSI (a proxy for "high
	// RSSI yet high loss", §5) exceeds the RSSI threshold.
	RTSAdaptiveLossThreshold float64
	RTSAdaptiveRSSIdBm       float64

	// BasicRate is the control-frame rate (ACK/RTS/CTS).
	BasicRate capacity.Rate
}

// RTSMode selects RTS/CTS behavior.
type RTSMode int

// RTS modes.
const (
	// RTSOff never uses RTS/CTS.
	RTSOff RTSMode = iota
	// RTSAlways protects every data frame, the 802.11/MACAW-style
	// blanket policy §5 criticizes as "a waste of spatial reuse".
	RTSAlways
	// RTSAdaptive enables protection only while the station observes
	// an extremely high loss rate in spite of a high RSSI — the
	// triggered mechanism §5 proposes.
	RTSAdaptive
)

// String returns the mode name.
func (m RTSMode) String() string {
	switch m {
	case RTSOff:
		return "off"
	case RTSAlways:
		return "always"
	case RTSAdaptive:
		return "adaptive"
	default:
		return "?"
	}
}

// DefaultConfig returns 802.11a DCF parameters with carrier sense on,
// broadcast-style operation (no ACK), and RTS off.
func DefaultConfig() Config {
	return Config{
		SlotTime:     9 * sim.Microsecond,
		SIFS:         16 * sim.Microsecond,
		DIFS:         34 * sim.Microsecond, // SIFS + 2 slots
		CWMin:        15,
		CWMax:        1023,
		CarrierSense: true,
		UseACK:       false,
		RetryLimit:   7,
		RTS:          RTSOff,

		RTSAdaptiveLossThreshold: 0.4,
		RTSAdaptiveRSSIdBm:       -70,

		BasicRate: capacity.Rate{Mbps: 6, BitsPerSymbol: 24, MinSNRdB: 6},
	}
}

// RateSelector chooses a transmit rate per destination and learns from
// outcomes. internal/rate provides SampleRate; FixedRate is local.
type RateSelector interface {
	// Select returns the rate for the next data frame to dst.
	Select(dst phy.NodeID) capacity.Rate
	// Update reports a transmission outcome. For broadcast traffic
	// (no feedback) the MAC never calls Update.
	Update(dst phy.NodeID, rate capacity.Rate, success bool, airtime sim.Time)
}

// FixedRate is a RateSelector pinned to one rate.
type FixedRate struct{ Rate capacity.Rate }

// Select implements RateSelector.
func (f FixedRate) Select(phy.NodeID) capacity.Rate { return f.Rate }

// Update implements RateSelector.
func (f FixedRate) Update(phy.NodeID, capacity.Rate, bool, sim.Time) {}

// Stats counts station activity.
type Stats struct {
	DataSent      uint64 // data frames put on the air
	DataAcked     uint64 // unicast data frames acknowledged
	Retries       uint64
	Drops         uint64 // frames abandoned after RetryLimit
	RTSSent       uint64
	CTSTimeouts   uint64
	AckTimeouts   uint64
	DeferredNanos sim.Time // time spent with CCA busy while backlogged
	NAVNanos      sim.Time // time spent deferring to NAV
}

type state int

const (
	stIdle state = iota
	stWaitIdle
	stDIFS
	stBackoff
	stTx
	stWaitCTS
	stWaitACK
	stRespond // brief SIFS turnaround before sending a response frame
)

// Station is one DCF MAC instance bound to a radio. A saturated
// traffic source is configured with StartSaturated; stations without
// traffic still respond to RTS and data (CTS/ACK) addressed to them.
type Station struct {
	cfg   Config
	s     *sim.Simulator
	radio *phy.Radio
	src   *rng.Source
	rates RateSelector

	// Traffic.
	backlogged bool
	dst        phy.NodeID
	frameBytes int

	// DCF state.
	st           state
	cw           int
	backoffSlots int
	timer        sim.Event
	pending      phy.Frame
	retries      int
	navUntil     sim.Time
	deferStart   sim.Time
	protectNext  int // remaining frames to protect with RTS (adaptive)

	// Pre-bound timer callbacks, built once in NewStation: the DCF loop
	// arms hundreds of DIFS, backoff and timeout timers per simulated
	// second, and binding the methods per call would allocate a closure
	// for every one of them.
	difsExpiredFn  func()
	backoffDoneFn  func()
	ackTimeoutFn   func()
	ctsTimeoutFn   func()
	transmitDataFn func()
	navWakeFn      func()

	// Adaptive RTS bookkeeping: outcomes of recent unicast data.
	recentOutcomes []bool

	// OnDeliver is invoked when a data frame from this station is
	// known delivered (ACK received). Broadcast delivery is counted at
	// the receivers instead.
	OnDeliver func(phy.Frame)
	// OnData is invoked for every successfully decoded data frame
	// addressed to this station (or broadcast). The testbed experiment
	// harness counts received packets here, mirroring the paper's
	// "count the number of packets successfully received at the
	// intended receiver".
	OnData func(phy.RxResult)

	Stats Stats
}

// NewStation binds a DCF MAC to a radio.
func NewStation(s *sim.Simulator, radio *phy.Radio, cfg Config, src *rng.Source, rates RateSelector) *Station {
	if rates == nil {
		rates = FixedRate{Rate: cfg.BasicRate}
	}
	st := &Station{cfg: cfg, s: s, radio: radio, src: src, rates: rates, cw: cfg.CWMin}
	st.difsExpiredFn = st.difsExpired
	st.backoffDoneFn = st.backoffDone
	st.ackTimeoutFn = st.ackTimeout
	st.ctsTimeoutFn = st.ctsTimeout
	st.transmitDataFn = st.transmitData
	st.navWakeFn = st.navWake
	radio.OnTxDone = st.onTxDone
	radio.OnRx = st.onRx
	return st
}

// StartSaturated makes the station a saturated source of frameBytes
// data frames to dst (phy.Broadcast for the paper's methodology),
// beginning at the current simulation time.
func (st *Station) StartSaturated(dst phy.NodeID, frameBytes int) {
	// Only a station with traffic contends, so only it listens to CCA
	// transitions; a passive receiver's radio leaves the medium's CCA
	// refresh alone.
	st.radio.ListenCCA(st.onCCA)
	st.backlogged = true
	st.dst = dst
	st.frameBytes = frameBytes
	st.prepareNext()
	st.beginAccess()
}

// prepareNext stages the next data frame.
func (st *Station) prepareNext() {
	st.retries = 0
	st.pending = phy.Frame{
		Dst:   st.dst,
		Kind:  phy.FrameData,
		Bytes: st.frameBytes,
		Rate:  st.rates.Select(st.dst),
	}
}

// busy reports the effective CCA including NAV. With carrier sense
// disabled the medium always appears idle (but a half-duplex radio
// still cannot contend while transmitting).
func (st *Station) busy() bool {
	if !st.cfg.CarrierSense {
		return st.radio.Transmitting()
	}
	if st.s.Now() < st.navUntil {
		return true
	}
	return st.radio.CCABusy()
}

// beginAccess starts medium access for the pending frame.
func (st *Station) beginAccess() {
	if !st.backlogged {
		st.st = stIdle
		return
	}
	if st.busy() {
		st.enterWaitIdle()
		return
	}
	st.enterDIFS()
}

func (st *Station) enterWaitIdle() {
	st.st = stWaitIdle
	st.deferStart = st.s.Now()
	st.cancelTimer()
	// If only NAV blocks us, wake when it expires (CCA callbacks won't
	// fire for virtual carrier).
	if st.s.Now() < st.navUntil && !st.radio.CCABusy() {
		st.scheduleNAVWake()
	}
}

// scheduleNAVWake arms a timer at the NAV expiry to resume contention
// once the virtual carrier clears.
func (st *Station) scheduleNAVWake() {
	until := st.navUntil
	st.cancelTimer()
	st.timer = st.s.At(until, st.navWakeFn)
}

// navWake fires at the NAV expiry the wake was armed for (the timer is
// canceled on any state change, so Now() is that expiry).
func (st *Station) navWake() {
	if st.st == stWaitIdle && !st.busy() {
		st.Stats.NAVNanos += st.s.Now() - st.deferStart
		st.enterDIFS()
	}
}

func (st *Station) enterDIFS() {
	st.st = stDIFS
	st.cancelTimer()
	st.timer = st.s.After(st.cfg.DIFS, st.difsExpiredFn)
}

func (st *Station) difsExpired() {
	if st.busy() {
		st.enterWaitIdle()
		return
	}
	st.st = stBackoff
	if st.backoffSlots == 0 {
		st.backoffSlots = st.src.IntN(st.cw + 1)
	}
	if st.backoffSlots == 0 {
		st.startExchange()
		return
	}
	// The slots count down in one timer, which elapses the slots no
	// event can interrupt without running anything; every exit from
	// stBackoff before the end goes through freezeBackoff.
	st.timer = st.s.Countdown(st.cfg.SlotTime, st.backoffSlots, st.backoffDoneFn)
}

// backoffDone ends the countdown: every backoff slot has elapsed.
func (st *Station) backoffDone() {
	st.backoffSlots = 0
	st.startExchange()
}

// freezeBackoff leaves stBackoff, keeping the slots not yet burned for
// the next contention round.
func (st *Station) freezeBackoff() {
	st.backoffSlots = st.timer.Remaining()
	st.cancelTimer()
}

// onCCA freezes and resumes the contention process.
func (st *Station) onCCA(busyNow bool) {
	if !st.cfg.CarrierSense {
		return
	}
	switch st.st {
	case stDIFS:
		if busyNow {
			st.cancelTimer()
			st.enterWaitIdle()
		}
	case stBackoff:
		if busyNow {
			st.freezeBackoff()
			st.enterWaitIdle()
		}
	case stWaitIdle:
		if !busyNow {
			if !st.busy() {
				st.Stats.DeferredNanos += st.s.Now() - st.deferStart
				st.enterDIFS()
			} else if st.s.Now() < st.navUntil {
				// Physical carrier cleared but the NAV still holds
				// the medium reserved: wake when it expires.
				st.scheduleNAVWake()
			}
		}
	}
}

// startExchange begins the frame exchange: RTS first when protection
// applies, else the data frame.
func (st *Station) startExchange() {
	if st.useRTS() {
		st.transmitRTS()
		return
	}
	st.transmitData()
}

// useRTS decides per-frame whether to protect with RTS/CTS.
func (st *Station) useRTS() bool {
	if st.pending.Dst == phy.Broadcast {
		return false
	}
	switch st.cfg.RTS {
	case RTSAlways:
		return true
	case RTSAdaptive:
		return st.protectNext > 0
	default:
		return false
	}
}

func (st *Station) transmitRTS() {
	st.st = stTx
	dataDur := st.radio.Transmit(phy.Frame{
		Dst:   st.pending.Dst,
		Kind:  phy.FrameRTS,
		Bytes: 20,
		Rate:  st.cfg.BasicRate,
		NAV:   st.exchangeNAV(),
	})
	_ = dataDur
	st.Stats.RTSSent++
}

// exchangeNAV is the medium reservation an RTS advertises: CTS + data
// + ACK plus three SIFS.
func (st *Station) exchangeNAV() sim.Time {
	phyCfg := radioConfig(st.radio)
	cts := phyCfg.FrameDuration(14, st.cfg.BasicRate)
	data := phyCfg.FrameDuration(st.pending.Bytes, st.pending.Rate)
	ack := phyCfg.FrameDuration(14, st.cfg.BasicRate)
	// Each SIFS gap is padded by the responder's RX/TX turnaround so
	// the reservation covers the whole exchange as seen on the air.
	return 3*(st.cfg.SIFS+phyCfg.TxTurnaround) + cts + data + ack
}

func (st *Station) transmitData() {
	if !st.backlogged {
		st.st = stIdle
		return
	}
	st.st = stTx
	st.radio.Transmit(st.pending)
	st.Stats.DataSent++
}

// onTxDone handles completion of our own transmissions.
func (st *Station) onTxDone(f phy.Frame) {
	switch f.Kind {
	case phy.FrameData:
		if f.Dst != phy.Broadcast && st.cfg.UseACK {
			st.st = stWaitACK
			phyCfg := radioConfig(st.radio)
			timeout := st.cfg.SIFS + phyCfg.FrameDuration(14, st.cfg.BasicRate) + 25*sim.Microsecond
			st.cancelTimer()
			st.timer = st.s.After(timeout, st.ackTimeoutFn)
			return
		}
		// Broadcast (or unacked unicast): fire-and-forget.
		st.frameDone(true)
	case phy.FrameRTS:
		st.st = stWaitCTS
		phyCfg := radioConfig(st.radio)
		timeout := st.cfg.SIFS + phyCfg.FrameDuration(14, st.cfg.BasicRate) + 25*sim.Microsecond
		st.cancelTimer()
		st.timer = st.s.After(timeout, st.ctsTimeoutFn)
	case phy.FrameACK, phy.FrameCTS:
		// Control responses need no follow-up from us; if we were in a
		// respond turnaround, resume contention for our own traffic.
		if st.st == stRespond {
			st.st = stIdle
			st.beginAccess()
		}
	}
}

// frameDone finalizes the pending data frame and moves on. success
// feeds rate control and, for unicast, delivery accounting.
func (st *Station) frameDone(success bool) {
	phyCfg := radioConfig(st.radio)
	airtime := phyCfg.FrameDuration(st.pending.Bytes, st.pending.Rate)
	if st.pending.Dst != phy.Broadcast && st.cfg.UseACK {
		st.rates.Update(st.pending.Dst, st.pending.Rate, success, airtime)
		st.noteOutcome(success)
		if success {
			st.Stats.DataAcked++
			if st.OnDeliver != nil {
				st.OnDeliver(st.pending)
			}
		}
	}
	if success {
		st.cw = st.cfg.CWMin
	}
	st.backoffSlots = 0
	if st.backlogged {
		st.prepareNext()
		// Post-transmission contention (802.11 requires backoff even
		// after success); kept in both CS modes so the modes differ
		// only in deferral, never in frame pacing.
		st.backoffSlots = st.src.IntN(st.cw + 1)
		st.beginAccess()
	} else {
		st.st = stIdle
	}
}

func (st *Station) ackTimeout() {
	if st.st != stWaitACK {
		return
	}
	st.Stats.AckTimeouts++
	st.retryOrDrop()
}

func (st *Station) ctsTimeout() {
	if st.st != stWaitCTS {
		return
	}
	st.Stats.CTSTimeouts++
	st.retryOrDrop()
}

func (st *Station) retryOrDrop() {
	st.retries++
	st.rates.Update(st.pending.Dst, st.pending.Rate, false,
		radioConfig(st.radio).FrameDuration(st.pending.Bytes, st.pending.Rate))
	st.noteOutcome(false)
	if st.retries > st.cfg.RetryLimit {
		st.Stats.Drops++
		st.frameDone(false)
		return
	}
	st.Stats.Retries++
	if st.cw < st.cfg.CWMax {
		st.cw = st.cw*2 + 1
		if st.cw > st.cfg.CWMax {
			st.cw = st.cfg.CWMax
		}
	}
	st.pending.Rate = st.rates.Select(st.pending.Dst)
	st.backoffSlots = st.src.IntN(st.cw + 1)
	st.beginAccess()
}

// noteOutcome records a unicast outcome and updates adaptive RTS
// state: §5 — enable protection when "experiencing an extremely high
// loss rate to some receiver in spite of a high RSSI".
func (st *Station) noteOutcome(success bool) {
	if st.cfg.RTS != RTSAdaptive {
		return
	}
	st.recentOutcomes = append(st.recentOutcomes, success)
	const window = 20
	if len(st.recentOutcomes) > window {
		st.recentOutcomes = st.recentOutcomes[len(st.recentOutcomes)-window:]
	}
	if len(st.recentOutcomes) < window/2 {
		return
	}
	ok := 0
	for _, s := range st.recentOutcomes {
		if s {
			ok++
		}
	}
	delivery := float64(ok) / float64(len(st.recentOutcomes))
	if st.protectNext > 0 {
		st.protectNext--
		return
	}
	if delivery < st.cfg.RTSAdaptiveLossThreshold &&
		st.radio.RSSIFromDBm(st.dst) > st.cfg.RTSAdaptiveRSSIdBm {
		st.protectNext = window
	}
}

// onRx handles frames arriving at our radio.
func (st *Station) onRx(res phy.RxResult) {
	f := res.Frame
	// NAV from overheard RTS/CTS not addressed to us (even corrupted
	// frames whose preamble locked carry no usable NAV, so require OK).
	if res.OK && f.NAV > 0 && f.Dst != st.radio.ID() {
		until := st.s.Now() + f.NAV
		if until > st.navUntil {
			st.navUntil = until
		}
	}
	if !res.OK || (f.Dst != st.radio.ID() && f.Dst != phy.Broadcast) {
		return
	}
	switch f.Kind {
	case phy.FrameRTS:
		if f.Dst == st.radio.ID() {
			st.respondAfterSIFS(phy.Frame{
				Dst:   f.Src,
				Kind:  phy.FrameCTS,
				Bytes: 14,
				Rate:  st.cfg.BasicRate,
				NAV:   f.NAV - st.cfg.SIFS - radioConfig(st.radio).FrameDuration(14, st.cfg.BasicRate),
			})
		}
	case phy.FrameCTS:
		if f.Dst == st.radio.ID() && st.st == stWaitCTS {
			st.cancelTimer()
			st.timer = st.s.After(st.cfg.SIFS, st.transmitDataFn)
			st.st = stTx
		}
	case phy.FrameData:
		if st.OnData != nil {
			st.OnData(res)
		}
		if f.Dst == st.radio.ID() && st.cfg.UseACK {
			st.respondAfterSIFS(phy.Frame{
				Dst:   f.Src,
				Kind:  phy.FrameACK,
				Bytes: 14,
				Rate:  st.cfg.BasicRate,
			})
		}
	case phy.FrameACK:
		if f.Dst == st.radio.ID() && st.st == stWaitACK {
			st.cancelTimer()
			st.frameDone(true)
		}
	}
}

// respondAfterSIFS transmits a control response after SIFS, ignoring
// CCA per the standard (responses own the medium).
func (st *Station) respondAfterSIFS(f phy.Frame) {
	prev := st.st
	if prev == stBackoff {
		st.freezeBackoff()
	}
	st.st = stRespond
	st.s.After(st.cfg.SIFS, func() {
		if st.radio.Transmitting() {
			// Shouldn't happen; fall back to previous state.
			st.st = prev
			return
		}
		st.radio.Transmit(f)
	})
}

func (st *Station) cancelTimer() {
	st.timer.Cancel()
	st.timer = sim.Event{}
}

// radioConfig fetches the PHY config via the radio's medium. Kept as a
// helper so Station never stores a second copy that could drift.
func radioConfig(r *phy.Radio) phy.Config {
	return r.MediumConfig()
}
