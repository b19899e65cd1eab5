// Package mac implements the 802.11-style DCF CSMA/CA MAC the paper's
// §4 throughput runs used, on top of internal/phy: broadcast frames
// with no ACKs at one fixed rate, DIFS and slotted backoff, and a
// carrier-sense-disabled "concurrency" mode matching the paper's
// experimental methodology ("we disable carrier sense and run all
// transmitters simultaneously").
//
// Two pathologies called out in §5 show up here: slot collisions,
// through the contention window setting, and — emergent rather than
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
	DIFS     sim.Time
	CWMin    int // contention window (slots - 1): with no retries it never doubles

	// CarrierSense false puts the station in the paper's concurrency
	// mode: the DCF state machine runs with identical timing (DIFS,
	// backoff) but CCA is forced idle, exactly how disabling clear
	// channel assessment behaves on real hardware. Keeping the timing
	// identical matters: the paper compares concurrency, multiplexing
	// and CS throughput head-to-head, so the modes must differ only
	// in deferral behavior, not in per-frame overhead.
	CarrierSense bool
}

// DefaultConfig returns 802.11a DCF timing with carrier sense on.
func DefaultConfig() Config {
	return Config{
		SlotTime:     9 * sim.Microsecond,
		DIFS:         34 * sim.Microsecond, // SIFS (16 µs) + 2 slots
		CWMin:        15,
		CarrierSense: true,
	}
}

// Stats counts station activity.
type Stats struct {
	DataSent      uint64   // data frames put on the air
	DeferredNanos sim.Time // time spent with CCA busy while backlogged
}

type state int

const (
	// stIdle is not contending: a passive receiver, or a sender whose
	// frame is on the air.
	stIdle state = iota
	stWaitIdle
	stDIFS
	stBackoff
)

// Station is one DCF MAC instance bound to a radio. A saturated
// traffic source is configured with StartSaturated; stations without
// traffic only count the data frames they decode (OnData).
type Station struct {
	cfg   Config
	s     *sim.Simulator
	radio *phy.Radio
	src   *rng.Source

	// DCF state.
	st           state
	backoffSlots int
	timer        sim.Event
	pending      phy.Frame // every data frame: fixed destination, length and rate
	deferStart   sim.Time

	// Pre-bound timer callbacks, built once in NewStation: the DCF loop
	// arms hundreds of DIFS and backoff timers per simulated second, and
	// binding the methods per call would allocate a closure for every
	// one of them.
	difsExpiredFn func()
	backoffDoneFn func()

	// OnData is invoked for every successfully decoded data frame
	// addressed to this station (or broadcast). The testbed experiment
	// harness counts received packets here, mirroring the paper's
	// "count the number of packets successfully received at the
	// intended receiver".
	OnData func(phy.RxResult)

	Stats Stats
}

// NewStation binds a DCF MAC to a radio. rate is the fixed rate of the
// data frames the station sends once StartSaturated; a passive
// receiver never uses it.
func NewStation(s *sim.Simulator, radio *phy.Radio, cfg Config, src *rng.Source, rate capacity.Rate) *Station {
	st := &Station{cfg: cfg, s: s, radio: radio, src: src, pending: phy.Frame{Rate: rate}}
	st.difsExpiredFn = st.difsExpired
	st.backoffDoneFn = st.backoffDone
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
	st.pending.Dst = dst
	st.pending.Bytes = frameBytes
	st.beginAccess()
}

// busy reports the effective CCA. With carrier sense disabled the
// medium always appears idle (but a half-duplex radio still cannot
// contend while transmitting).
func (st *Station) busy() bool {
	if !st.cfg.CarrierSense {
		return st.radio.Transmitting()
	}
	return st.radio.CCABusy()
}

// beginAccess starts medium access for the pending frame.
func (st *Station) beginAccess() {
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
		st.backoffSlots = st.src.IntN(st.cfg.CWMin + 1)
	}
	if st.backoffSlots == 0 {
		st.transmitData()
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
	st.transmitData()
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
		if !busyNow && !st.busy() {
			st.Stats.DeferredNanos += st.s.Now() - st.deferStart
			st.enterDIFS()
		}
	}
}

func (st *Station) transmitData() {
	st.st = stIdle
	st.radio.Transmit(st.pending)
	st.Stats.DataSent++
}

// onTxDone ends a data frame: with no ACK it is fire-and-forget, so
// the station draws its post-transmission backoff (802.11 requires one
// even after success; kept in both CS modes so the modes differ only
// in deferral, never in frame pacing) and contends for the next frame.
func (st *Station) onTxDone() {
	st.backoffSlots = st.src.IntN(st.cfg.CWMin + 1)
	st.beginAccess()
}

// onRx hands every decoded data frame addressed to this station (or
// broadcast) to OnData.
func (st *Station) onRx(res phy.RxResult) {
	f := res.Frame
	if !res.OK || (f.Dst != st.radio.ID() && f.Dst != phy.Broadcast) {
		return
	}
	if st.OnData != nil {
		st.OnData(res)
	}
}

func (st *Station) cancelTimer() {
	st.timer.Cancel()
	st.timer = sim.Event{}
}
