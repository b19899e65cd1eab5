package phy

import (
	"fmt"
	"testing"

	"carriersense/internal/capacity"
	"carriersense/internal/rng"
	"carriersense/internal/sim"
)

// pairChannel is a two-way channel with settable gains.
type pairChannel struct {
	gains map[[2]NodeID]float64
}

func newPairChannel() *pairChannel {
	return &pairChannel{gains: make(map[[2]NodeID]float64)}
}

func (c *pairChannel) set(a, b NodeID, gainDB float64) {
	c.gains[[2]NodeID{a, b}] = gainDB
	c.gains[[2]NodeID{b, a}] = gainDB
}

func (c *pairChannel) GainDB(from, to NodeID) float64 {
	if g, ok := c.gains[[2]NodeID{from, to}]; ok {
		return g
	}
	return -300
}

// quiet returns a config without fading, for deterministic tests.
func quiet() Config {
	cfg := DefaultConfig()
	cfg.Fade = capacity.FadeModel{}
	return cfg
}

var rate6 = capacity.Table80211a[0]
var rate54 = capacity.Table80211a[7]

func TestFrameDuration(t *testing.T) {
	cfg := DefaultConfig()
	// 1400 bytes at 6 Mb/s: 16+11200+6 = 11222 bits / 24 per symbol =
	// 468 symbols → 1872 µs + 20 µs PLCP.
	if got := cfg.FrameDuration(1400, rate6); got != 1892*sim.Microsecond {
		t.Errorf("1400B @ 6M = %v, want 1892us", got)
	}
	// At 54 Mb/s: 11222/216 = 52 symbols → 208 + 20 = 228 µs.
	if got := cfg.FrameDuration(1400, rate54); got != 228*sim.Microsecond {
		t.Errorf("1400B @ 54M = %v, want 228us", got)
	}
	// An ACK at 6 Mb/s: 16+112+6 = 134 bits → 6 symbols → 44 µs.
	if got := cfg.FrameDuration(14, rate6); got != 44*sim.Microsecond {
		t.Errorf("ACK = %v, want 44us", got)
	}
}

// runLink transmits n frames over a single link at the given gain and
// returns the number delivered.
func runLink(t *testing.T, gainDB float64, rate capacity.Rate, n int, cfg Config) int {
	t.Helper()
	s := sim.New()
	ch := newPairChannel()
	ch.set(0, 1, gainDB)
	m := NewMedium(s, ch, cfg, rng.New(1))
	tx := m.AddRadio(0, 15)
	rx := m.AddRadio(1, 15)
	got := 0
	rx.OnRx = func(res RxResult) {
		if res.OK {
			got++
		}
	}
	var send func()
	sent := 0
	tx.OnTxDone = func() {
		if sent < n {
			s.After(10*sim.Microsecond, send)
		}
	}
	send = func() {
		sent++
		tx.Transmit(Frame{Dst: Broadcast, Bytes: 1400, Rate: rate})
	}
	send()
	s.RunAll()
	return got
}

func TestCleanLinkDelivers(t *testing.T) {
	// 15 dBm - 80 dB = -65 dBm, 30 dB SNR: every frame arrives.
	if got := runLink(t, -80, rate6, 200, quiet()); got != 200 {
		t.Errorf("delivered %d/200 on clean link", got)
	}
}

func TestWeakLinkFails(t *testing.T) {
	// RSSI below preamble sensitivity: nothing even locks.
	if got := runLink(t, -120, rate6, 100, quiet()); got != 0 {
		t.Errorf("delivered %d/100 on dead link", got)
	}
}

func TestMarginalLinkPartialDelivery(t *testing.T) {
	// SNR exactly at the 6 Mb/s 50% point: roughly half arrive.
	gain := rate6.MinSNRdB + quiet().NoiseFloorDBm - 15 // SNR = MinSNRdB
	got := runLink(t, gain, rate6, 2000, quiet())
	if got < 700 || got > 1300 {
		t.Errorf("delivered %d/2000 at the PER-50 point, want ~1000", got)
	}
}

func TestRateRequiresSNR(t *testing.T) {
	// 12 dB SNR: 6 Mb/s clean, 54 Mb/s dead.
	gain := 12 + quiet().NoiseFloorDBm - 15
	if got := runLink(t, gain, rate6, 200, quiet()); got < 195 {
		t.Errorf("6M at 12dB delivered %d/200", got)
	}
	if got := runLink(t, gain, rate54, 200, quiet()); got > 5 {
		t.Errorf("54M at 12dB delivered %d/200, want ~0", got)
	}
}

func TestFadingReducesMarginalDelivery(t *testing.T) {
	// With outage fading, even a strong link loses ~2% of frames.
	cfg := DefaultConfig()
	cfg.Fade = capacity.FadeModel{SigmaDB: 0, OutageProb: 0.1, OutageDepthDB: 40}
	got := runLink(t, -70, rate6, 2000, cfg)
	if got > 1900 || got < 1700 {
		t.Errorf("delivered %d/2000 under 10%% deep outage, want ~1800", got)
	}
}

// collisionHarness: two senders, one receiver in the middle.
func collisionHarness(gain01, gain21, gain02 float64, cfg Config) (*sim.Simulator, *Medium, [3]*Radio) {
	s := sim.New()
	ch := newPairChannel()
	ch.set(0, 1, gain01) // sender 0 -> receiver 1
	ch.set(2, 1, gain21) // sender 2 -> receiver 1
	ch.set(0, 2, gain02) // sender-sender path
	m := NewMedium(s, ch, cfg, rng.New(2))
	return s, m, [3]*Radio{m.AddRadio(0, 15), m.AddRadio(1, 15), m.AddRadio(2, 15)}
}

func TestCollisionDestroysFrame(t *testing.T) {
	s, _, r := collisionHarness(-80, -80, -300, quiet())
	got := 0
	r[1].OnRx = func(res RxResult) {
		if res.OK {
			got++
		}
	}
	// Equal-power overlap: SINR ~0 dB, both frames die.
	s.At(0, func() { r[0].Transmit(Frame{Dst: Broadcast, Bytes: 1400, Rate: rate6}) })
	s.At(100*sim.Microsecond, func() { r[2].Transmit(Frame{Dst: Broadcast, Bytes: 1400, Rate: rate6}) })
	s.RunAll()
	if got != 0 {
		t.Errorf("delivered %d frames through a full collision", got)
	}
}

func TestCaptureStrongFirstFrameSurvives(t *testing.T) {
	// The first frame is 25 dB stronger: it locks first and survives
	// the weak overlap.
	s, _, r := collisionHarness(-60, -85, -300, quiet())
	okFrom := map[NodeID]int{}
	r[1].OnRx = func(res RxResult) {
		if res.OK {
			okFrom[res.Frame.Src]++
		}
	}
	s.At(0, func() { r[0].Transmit(Frame{Dst: Broadcast, Bytes: 1400, Rate: rate6}) })
	s.At(100*sim.Microsecond, func() { r[2].Transmit(Frame{Dst: Broadcast, Bytes: 1400, Rate: rate6}) })
	s.RunAll()
	if okFrom[0] != 1 {
		t.Errorf("strong first frame lost: %v", okFrom)
	}
	if okFrom[2] != 0 {
		t.Errorf("weak overlapped frame delivered: %v", okFrom)
	}
}

func TestNoReceiveAbort(t *testing.T) {
	// A *stronger* frame arriving second must NOT steal the receiver:
	// the radio stays locked on the first (weak) frame — §4's "did not
	// have receive abort enabled".
	s, _, r := collisionHarness(-85, -60, -300, quiet())
	okFrom := map[NodeID]int{}
	r[1].OnRx = func(res RxResult) {
		if res.OK {
			okFrom[res.Frame.Src]++
		}
	}
	s.At(0, func() { r[0].Transmit(Frame{Dst: Broadcast, Bytes: 1400, Rate: rate6}) })
	s.At(100*sim.Microsecond, func() { r[2].Transmit(Frame{Dst: Broadcast, Bytes: 1400, Rate: rate6}) })
	s.RunAll()
	if okFrom[2] != 0 {
		t.Errorf("receiver aborted to the stronger frame: %v", okFrom)
	}
}

func TestTransmitterMissesPreambles(t *testing.T) {
	// A radio that is transmitting cannot lock an incoming frame — the
	// root of chain collisions (§5).
	s, _, r := collisionHarness(-80, -80, -70, quiet())
	got := 0
	r[0].OnRx = func(res RxResult) { got++ }
	s.At(0, func() { r[0].Transmit(Frame{Dst: Broadcast, Bytes: 1400, Rate: rate6}) })
	// Frame towards radio 0 while it transmits.
	s.At(50*sim.Microsecond, func() { r[2].Transmit(Frame{Dst: Broadcast, Bytes: 200, Rate: rate6}) })
	s.RunAll()
	if got != 0 {
		t.Errorf("transmitting radio locked a frame")
	}
}

func TestCCAEnergyDetection(t *testing.T) {
	s, _, r := collisionHarness(-80, -80, -75, quiet())
	if r[2].CCABusy() {
		t.Error("CCA busy on idle medium")
	}
	transitions := []bool{}
	r[2].ListenCCA(func(b bool) { transitions = append(transitions, b) })
	s.At(0, func() {
		r[0].Transmit(Frame{Dst: Broadcast, Bytes: 1400, Rate: rate6})
	})
	s.At(10*sim.Microsecond, func() {
		// -75 dB gain: sensed power -60 dBm, well above -82: busy.
		if !r[2].CCABusy() {
			t.Error("CCA idle during strong transmission")
		}
	})
	s.RunAll()
	if r[2].CCABusy() {
		t.Error("CCA busy after air cleared")
	}
	if len(transitions) != 2 || !transitions[0] || transitions[1] {
		t.Errorf("transitions = %v, want [busy, idle]", transitions)
	}
}

// TestListenCCAAfterFirstTransmit installs a listener on a radio in
// the turnaround of its first frame, while another frame keeps the
// medium busy. The medium skipped the radio's CCA until then (no
// listener, never transmitted), so Transmit must bring it up to date:
// the listener sees what one installed from the start would see.
func TestListenCCAAfterFirstTransmit(t *testing.T) {
	run := func(listenFromStart bool) []bool {
		s, _, r := collisionHarness(-80, -80, -75, quiet())
		if listenFromStart {
			r[2].ListenCCA(func(bool) {})
		}
		var seen []bool
		s.At(0, func() { r[0].Transmit(Frame{Dst: Broadcast, Bytes: 1400, Rate: rate6}) })
		s.At(50*sim.Microsecond, func() {
			r[2].Transmit(Frame{Dst: Broadcast, Bytes: 100, Rate: rate6})
			r[2].ListenCCA(func(b bool) { seen = append(seen, b) })
		})
		s.RunAll()
		return seen
	}
	got, want := run(false), run(true)
	if len(want) == 0 || fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("transitions %v, want %v as with a listener from the start", got, want)
	}
}

func TestPreambleCarrierSense(t *testing.T) {
	// Sensed power below the energy threshold but above preamble
	// sensitivity: CCA busy only because the radio locked the frame.
	cfg := quiet()
	s, _, r := collisionHarness(-80, -80, -100, cfg) // sensed -85 dBm < -82
	s.At(0, func() { r[0].Transmit(Frame{Dst: Broadcast, Bytes: 1400, Rate: rate6}) })
	s.At(30*sim.Microsecond, func() {
		if !r[2].CCABusy() {
			t.Error("preamble CS should mark busy while locked")
		}
	})
	s.RunAll()

	// Same geometry with preamble CS disabled: energy alone is below
	// threshold, so the medium looks idle.
	cfg.PreambleCarrierSense = false
	s2, _, r2 := collisionHarness(-80, -80, -100, cfg)
	s2.At(0, func() { r2[0].Transmit(Frame{Dst: Broadcast, Bytes: 1400, Rate: rate6}) })
	s2.At(30*sim.Microsecond, func() {
		if r2[2].CCABusy() {
			t.Error("energy-only CCA busy below threshold")
		}
	})
	s2.RunAll()
}

func TestNoiseOffsetShiftsDelivery(t *testing.T) {
	// Raising the receiver's noise floor by 12 dB turns a clean 12 dB
	// link into a dead one at 6 Mb/s.
	s := sim.New()
	ch := newPairChannel()
	gain := 12 + quiet().NoiseFloorDBm - 15
	ch.set(0, 1, gain)
	m := NewMedium(s, ch, quiet(), rng.New(4))
	tx := m.AddRadio(0, 15)
	rx := m.AddRadio(1, 15)
	rx.SetNoiseOffsetDB(12)
	got := 0
	rx.OnRx = func(res RxResult) {
		if res.OK {
			got++
		}
	}
	s.At(0, func() { tx.Transmit(Frame{Dst: Broadcast, Bytes: 1400, Rate: rate6}) })
	s.RunAll()
	if got != 0 {
		t.Errorf("delivered with a 12 dB noise penalty at 0 dB effective SNR margin")
	}
}

func TestDoubleTransmitPanics(t *testing.T) {
	s := sim.New()
	ch := newPairChannel()
	m := NewMedium(s, ch, quiet(), rng.New(5))
	r := m.AddRadio(0, 15)
	r.Transmit(Frame{Dst: Broadcast, Bytes: 100, Rate: rate6})
	defer func() {
		if recover() == nil {
			t.Error("double transmit did not panic")
		}
	}()
	r.Transmit(Frame{Dst: Broadcast, Bytes: 100, Rate: rate6})
}

func TestDuplicateRadioPanics(t *testing.T) {
	s := sim.New()
	m := NewMedium(s, newPairChannel(), quiet(), rng.New(6))
	m.AddRadio(0, 15)
	defer func() {
		if recover() == nil {
			t.Error("duplicate radio did not panic")
		}
	}()
	m.AddRadio(0, 15)
}

func TestHalfDuplexDropsReception(t *testing.T) {
	// A radio that starts transmitting abandons a reception in
	// progress.
	s, _, r := collisionHarness(-80, -80, -70, quiet())
	got := 0
	r[2].OnRx = func(res RxResult) { got++ }
	s.At(0, func() { r[0].Transmit(Frame{Dst: Broadcast, Bytes: 1400, Rate: rate6}) })
	s.At(50*sim.Microsecond, func() {
		if r[2].rx == nil {
			t.Error("radio 2 should have locked radio 0's frame")
		}
		r[2].Transmit(Frame{Dst: Broadcast, Bytes: 100, Rate: rate6})
		if r[2].rx != nil {
			t.Error("transmit did not abandon the reception")
		}
	})
	s.RunAll()
	if got != 0 {
		t.Errorf("abandoned reception still completed: %d", got)
	}
}

func TestFrameDurationDSSS(t *testing.T) {
	cfg := DefaultConfig()
	r1 := capacity.Table80211b[0] // 1 Mb/s
	// 1400 B at 1 Mb/s: 192 µs preamble + 11200 µs payload.
	if got := cfg.FrameDuration(1400, r1); got != 11392*sim.Microsecond {
		t.Errorf("1400B @ 1M DSSS = %v, want 11392us", got)
	}
	r11 := capacity.Table80211b[3] // 11 Mb/s
	want := DSSSPreamble + sim.FromMicros(float64(8*1400)/11)
	if got := cfg.FrameDuration(1400, r11); got != want {
		t.Errorf("1400B @ 11M DSSS = %v, want %v", got, want)
	}
	// DSSS 1 Mb/s is far slower on the air than OFDM 6 Mb/s.
	if cfg.FrameDuration(1400, r1) < 5*cfg.FrameDuration(1400, capacity.Table80211a[0]) {
		t.Error("DSSS/OFDM airtime relation wrong")
	}
}

// linChannel implements LinearChannel over a flat dB gain, with the
// linear value precomputed — the testbed's gain-matrix shape in
// miniature.
type linChannel struct {
	db  float64
	lin float64
}

func newLinChannel(db float64) linChannel {
	return linChannel{db: db, lin: DBToLin(db)}
}

func (c linChannel) GainDB(from, to NodeID) float64  { return c.db }
func (c linChannel) GainLin(from, to NodeID) float64 { return c.lin }

// TestLinearChannelMatchesGeneric pins the LinearChannel fast path to
// the generic dB path: the same scenario over the same gains must
// deliver identically whichever interface the channel exposes.
func TestLinearChannelMatchesGeneric(t *testing.T) {
	run := func(ch Channel) (delivered int) {
		src := rng.New(9)
		s := sim.New()
		m := NewMedium(s, ch, quiet(), src.Split())
		tx := m.AddRadio(1, 15)
		rx := m.AddRadio(2, 15)
		rx.OnRx = func(res RxResult) {
			if res.OK {
				delivered++
			}
		}
		for i := 0; i < 20; i++ {
			s.After(sim.Time(i)*3*sim.Millisecond, func() {
				if !tx.Transmitting() {
					tx.Transmit(Frame{Dst: Broadcast, Bytes: 1400, Rate: rate6})
				}
			})
		}
		s.RunAll()
		return delivered
	}
	lin := newLinChannel(-70)
	genericDelivered := run(dbOnly{lin})
	linDelivered := run(lin)
	if genericDelivered != linDelivered {
		t.Fatalf("delivery differs: generic %d, linear %d", genericDelivered, linDelivered)
	}
}

// dbOnly hides the GainLin method so the medium takes the generic path.
type dbOnly struct{ ch linChannel }

func (c dbOnly) GainDB(from, to NodeID) float64 { return c.ch.GainDB(from, to) }

// TestPerFrameAllocs guards the per-frame PHY+MAC allocation budget: a
// warm saturated run — pooled transmissions, embedded receptions,
// recycled event slots, pre-bound timer callbacks — must not allocate
// per frame. This is the hot-path pin behind the simulator benchmarks
// in the repository root.
func TestPerFrameAllocs(t *testing.T) {
	src := rng.New(3)
	s := sim.New()
	cfg := DefaultConfig() // fading on: the draw path must be alloc-free too
	m := NewMedium(s, newLinChannel(-60), cfg, src.Split())
	tx := m.AddRadio(1, 15)
	rx := m.AddRadio(2, 15)
	_ = rx
	frames := 0
	tx.OnTxDone = func() {
		frames++
		tx.Transmit(Frame{Dst: Broadcast, Bytes: 1400, Rate: rate6})
	}
	tx.Transmit(Frame{Dst: Broadcast, Bytes: 1400, Rate: rate6})
	until := sim.Time(0)
	run := func() {
		until += 50 * sim.Millisecond
		s.Run(until)
	}
	run() // warm the pools
	framesBefore := frames
	allocs := testing.AllocsPerRun(5, run)
	framesPerRun := float64(frames-framesBefore) / 6 // warmup call + 5 measured
	if framesPerRun < 10 {
		t.Fatalf("run too short: %.0f frames per run", framesPerRun)
	}
	if perFrame := allocs / framesPerRun; perFrame > 0.01 {
		t.Errorf("PHY path allocates %.3f objects/frame (%.0f over %.0f frames), want ~0",
			perFrame, allocs, framesPerRun)
	}
}

// TestAddRadioDuringTransmission covers late radio registration while
// a faded transmission is in flight: the newcomer's ordinal must index
// safely into the in-flight fade caches.
func TestAddRadioDuringTransmission(t *testing.T) {
	src := rng.New(5)
	s := sim.New()
	cfg := DefaultConfig() // fading on
	m := NewMedium(s, newLinChannel(-70), cfg, src.Split())
	tx := m.AddRadio(1, 15)
	m.AddRadio(2, 15)
	tx.Transmit(Frame{Dst: Broadcast, Bytes: 1400, Rate: rate6})
	s.Run(50 * sim.Microsecond) // frame is on the air
	late := m.AddRadio(3, 15)
	late.CCABusy() // queries rxPowerMw for the in-flight frame
	s.RunAll()
}
