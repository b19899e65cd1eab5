package core

import (
	"math"
	"testing"
	"testing/quick"

	"carriersense/internal/capacity"
	"carriersense/internal/geometry"
	"carriersense/internal/rng"
)

// The helpers below build the configurations and environments the
// package's tests check the model against; no program path needs them.

// NoShadowParams returns the simplified (σ = 0) environment of §3.3.
func NoShadowParams() Params {
	p := DefaultParams()
	p.SigmaDB = 0
	return p
}

// Noise returns the linear noise floor.
func (m *Model) Noise() float64 { return m.noise }

// ConfigPolar constructs a shadowing-free configuration from the
// paper's polar receiver coordinates (both receivers at (r_i, θ_i)
// around their own sender).
func ConfigPolar(d, r1, theta1, r2, theta2 float64) Config {
	p1 := geometry.Polar(r1, theta1)
	p2 := geometry.Polar(r2, theta2)
	return Config{
		D: d, X1: p1.X, Y1: p1.Y, X2: p2.X, Y2: p2.Y,
		LSig1: 1, LInt1: 1, LSig2: 1, LInt2: 1, LSense: 1,
	}
}

// R1 returns receiver 1's distance from its sender.
func (c Config) R1() float64 { return math.Hypot(c.X1, c.Y1) }

// R2 returns receiver 2's distance from its sender.
func (c Config) R2() float64 { return math.Hypot(c.X2, c.Y2) }

// SampleConfig draws a random configuration: receivers uniform over
// their R_max discs and independent lognormal shadowing on the five
// channels (footnote 14: distributions assumed uncorrelated).
func (m *Model) SampleConfig(src *rng.Source, rmax, d float64) Config {
	p1 := geometry.UniformInDisc(src, rmax)
	p2 := geometry.UniformInDisc(src, rmax)
	sigma := m.params.SigmaDB
	return Config{
		D:      d,
		X1:     p1.X,
		Y1:     p1.Y,
		X2:     p2.X,
		Y2:     p2.Y,
		LSig1:  src.LognormalDB(sigma),
		LInt1:  src.LognormalDB(sigma),
		LSig2:  src.LognormalDB(sigma),
		LInt2:  src.LognormalDB(sigma),
		LSense: src.LognormalDB(sigma),
	}
}

func TestParamsValidate(t *testing.T) {
	if err := DefaultParams().Validate(); err != nil {
		t.Errorf("default params invalid: %v", err)
	}
	bad := DefaultParams()
	bad.Alpha = 0
	if err := bad.Validate(); err == nil {
		t.Error("alpha=0 accepted")
	}
	bad = DefaultParams()
	bad.SigmaDB = -1
	if err := bad.Validate(); err == nil {
		t.Error("negative sigma accepted")
	}
	bad = DefaultParams()
	bad.NoiseDB = 5
	if err := bad.Validate(); err == nil {
		t.Error("positive noise floor accepted")
	}
}

// foreignCapacity is a capacity model from outside internal/capacity:
// it has no spec, so no kernel request can carry it.
type foreignCapacity struct{}

func (foreignCapacity) Throughput(snr float64) float64 { return snr }
func (foreignCapacity) Name() string                   { return "foreign" }

func TestParamsValidateRejectsForeignCapacity(t *testing.T) {
	p := DefaultParams()
	p.Capacity = foreignCapacity{}
	err := p.Validate()
	if err == nil {
		t.Fatal("foreign capacity model accepted")
	}
	for _, m := range []capacity.Model{nil, capacity.NewShannon(), capacity.FixedRate{Rate: 1}} {
		ok := DefaultParams()
		ok.Capacity = m
		if verr := ok.Validate(); verr != nil {
			t.Errorf("capacity %T rejected: %v", m, verr)
		}
	}
	defer func() {
		r := recover()
		if perr, isErr := r.(error); !isErr || perr.Error() != err.Error() {
			t.Errorf("New panicked with %v, want %v", r, err)
		}
	}()
	New(p)
}

func TestNewPanicsOnInvalid(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("New with invalid params did not panic")
		}
	}()
	New(Params{Alpha: -1, NoiseDB: -65})
}

func TestNoiseLinear(t *testing.T) {
	m := New(DefaultParams())
	if got := m.Noise(); math.Abs(got-math.Pow(10, -6.5)) > 1e-12 {
		t.Errorf("noise = %v", got)
	}
}

func TestThresholdPowerDistanceRoundTrip(t *testing.T) {
	m := New(DefaultParams())
	f := func(raw float64) bool {
		d := 1 + math.Abs(math.Mod(raw, 200))
		p := m.ThresholdPower(d)
		return math.Abs(EquivalentDistanceAtAlpha(p, m.Params().Alpha)-d) < 1e-6*d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEquivalentDistanceAtAlpha(t *testing.T) {
	// A threshold power measured as distance 55 at α = 3 must map back
	// to 55 at α = 3.
	m := New(DefaultParams())
	p := m.ThresholdPower(55)
	if got := EquivalentDistanceAtAlpha(p, 3); math.Abs(got-55) > 1e-9 {
		t.Errorf("equivalent distance = %v, want 55", got)
	}
}

// fixedConfig builds a deterministic configuration for formula checks.
func fixedConfig(d, r1, theta1 float64) Config {
	return ConfigPolar(d, r1, theta1, r1, theta1)
}

func TestCapacityFormulas(t *testing.T) {
	m := New(NoShadowParams())
	c := fixedConfig(55, 20, 0)

	// C_single = ln(1 + r^-α/N).
	wantSingle := math.Log1p(math.Pow(20, -3) / m.Noise())
	if got := m.CSingle(c, 1); math.Abs(got-wantSingle) > 1e-12 {
		t.Errorf("CSingle = %v, want %v", got, wantSingle)
	}
	// Multiplexing is exactly half.
	if got := m.CMultiplexing(c, 1); math.Abs(got-wantSingle/2) > 1e-12 {
		t.Errorf("CMultiplexing = %v, want %v", got, wantSingle/2)
	}
	// Concurrency with the receiver at θ=0 (away from the interferer):
	// Δr = r + D = 75.
	interf := math.Pow(75, -3)
	wantConc := math.Log1p(math.Pow(20, -3) / (m.Noise() + interf))
	if got := m.CConcurrent(c, 1); math.Abs(got-wantConc) > 1e-12 {
		t.Errorf("CConcurrent = %v, want %v", got, wantConc)
	}
	// Concurrency is never better than no-competition.
	if m.CConcurrent(c, 1) > m.CSingle(c, 1) {
		t.Error("concurrency exceeded single")
	}
}

func TestCConcurrentDegradesWithCloserInterferer(t *testing.T) {
	m := New(NoShadowParams())
	prev := math.Inf(1)
	for _, d := range []float64{200, 100, 50, 25, 10} {
		c := fixedConfig(d, 20, math.Pi/2)
		got := m.CConcurrent(c, 1)
		if got >= prev {
			t.Errorf("concurrency did not degrade at D=%v: %v >= %v", d, got, prev)
		}
		prev = got
	}
}

// averagesOf evaluates the fused averages integrand on one fixed
// configuration under the threshold D_thresh.
func averagesOf(m *Model, c Config, dThresh float64) []float64 {
	out := make([]float64, nAverages)
	m.newPointEval(0, c.D, dThresh).averagesSample(evaluate(m, c), out)
	return out
}

func TestDefersThreshold(t *testing.T) {
	m := New(NoShadowParams())
	for _, tc := range []struct {
		d      float64
		defers bool
	}{{54, true}, {56, false}} {
		c := fixedConfig(tc.d, 10, 0)
		if got := m.newPointEval(0, tc.d, 55).defers(evaluate(m, c)); got != tc.defers {
			t.Errorf("sender at D=%v with Dthresh=55: defers = %v, want %v", tc.d, got, tc.defers)
		}
	}
}

func TestDefersWithShadowing(t *testing.T) {
	m := New(DefaultParams())
	pe := m.newPointEval(0, 55, 55)
	c := fixedConfig(55, 10, 0)
	c.LSense = 2 // +3 dB shadowing on the sensing path
	if !pe.defers(evaluate(m, c)) {
		t.Error("favorable sensing shadowing should trigger deferral")
	}
	c.LSense = 0.5
	if pe.defers(evaluate(m, c)) {
		t.Error("unfavorable sensing shadowing should suppress deferral")
	}
}

func TestCCarrierSensePiecewise(t *testing.T) {
	m := New(NoShadowParams())
	near := fixedConfig(30, 20, 1)
	if got, want := averagesOf(m, near, 55)[idxCS], m.CMultiplexing(near, 1); got != want {
		t.Errorf("near CS = %v, want mux %v", got, want)
	}
	far := fixedConfig(120, 20, 1)
	if got, want := averagesOf(m, far, 55)[idxCS], m.CConcurrent(far, 1); got != want {
		t.Errorf("far CS = %v, want conc %v", got, want)
	}
}

func TestCMaxIsBinaryChoice(t *testing.T) {
	m := New(NoShadowParams())
	f := func(rawD, rawR, rawTheta float64) bool {
		d := 1 + math.Abs(math.Mod(rawD, 150))
		r := 0.5 + math.Abs(math.Mod(rawR, 100))
		theta := math.Mod(rawTheta, 2*math.Pi)
		c := fixedConfig(d, r, theta)
		conc := (m.CConcurrent(c, 1) + m.CConcurrent(c, 2)) / 2
		mux := (m.CMultiplexing(c, 1) + m.CMultiplexing(c, 2)) / 2
		got := averagesOf(m, c, 55)[idxMax]
		return math.Abs(got-math.Max(conc, mux)) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCUBMaxBoundsCMax(t *testing.T) {
	// Per-pair UB decouples the pairs: the average of the two pairs'
	// UBs is ≥ C_max for every configuration (footnote 10's gap).
	m := New(DefaultParams())
	src := rng.New(5)
	for i := 0; i < 5_000; i++ {
		c := m.SampleConfig(src, 60, 45)
		ub := (m.CUBMax(c, 1) + m.CUBMax(c, 2)) / 2
		if got := averagesOf(m, c, 55)[idxMax]; got > ub+1e-12 {
			t.Fatalf("CMax %v exceeded UB %v", got, ub)
		}
	}
}

func TestPairSymmetry(t *testing.T) {
	// The two pairs are statistically identical: their sampled average
	// throughputs must agree within Monte Carlo noise.
	m := New(DefaultParams())
	src := rng.New(6)
	var sum1, sum2 float64
	n := 100_000
	for i := 0; i < n; i++ {
		c := m.SampleConfig(src, 40, 55)
		sum1 += m.CConcurrent(c, 1)
		sum2 += m.CConcurrent(c, 2)
	}
	if diff := math.Abs(sum1-sum2) / sum1; diff > 0.02 {
		t.Errorf("pair asymmetry %v", diff)
	}
}

func TestSampleConfigBounds(t *testing.T) {
	m := New(DefaultParams())
	src := rng.New(7)
	for i := 0; i < 10_000; i++ {
		c := m.SampleConfig(src, 30, 55)
		if c.R1() > 30 || c.R2() > 30 {
			t.Fatalf("receiver outside Rmax: %v %v", c.R1(), c.R2())
		}
		if c.LSig1 <= 0 || c.LSense <= 0 {
			t.Fatalf("non-positive shadowing factor")
		}
	}
}

func TestSampleConfigNoShadowing(t *testing.T) {
	m := New(NoShadowParams())
	src := rng.New(8)
	c := m.SampleConfig(src, 30, 55)
	if c.LSig1 != 1 || c.LInt1 != 1 || c.LSense != 1 {
		t.Errorf("sigma=0 config has shadowing: %+v", c)
	}
}

func TestStarvationDefinition(t *testing.T) {
	m := New(NoShadowParams())
	// Receiver right next to the interferer: starved under concurrency.
	c := fixedConfig(20, 19, math.Pi) // ~1 unit from the interferer
	if !m.StarvedUnderConcurrency(c, 1, 0.10) {
		t.Error("receiver adjacent to interferer not starved")
	}
	// Receiver far on the other side with a distant interferer: fine.
	c = fixedConfig(200, 5, 0)
	if m.StarvedUnderConcurrency(c, 1, 0.10) {
		t.Error("well-separated receiver starved")
	}
}

func TestPrefersMultiplexing(t *testing.T) {
	m := New(NoShadowParams())
	// Close interferer: multiplexing preferred.
	if !m.PrefersMultiplexing(fixedConfig(5, 20, math.Pi/2), 1) {
		t.Error("close interferer should prefer multiplexing")
	}
	// Very far interferer: concurrency preferred.
	if m.PrefersMultiplexing(fixedConfig(500, 20, math.Pi/2), 1) {
		t.Error("far interferer should prefer concurrency")
	}
}

func TestCustomCapacityModel(t *testing.T) {
	// Swapping in a fixed-rate capacity model changes the answers —
	// the ablation hook works end to end.
	p := NoShadowParams()
	p.Capacity = capacity.FixedRate{Rate: 1, MinSNR: 10}
	m := New(p)
	c := fixedConfig(500, 20, 0)
	if got := m.CSingle(c, 1); got != 1 {
		t.Errorf("fixed-rate single = %v, want 1", got)
	}
	// Under heavy interference the fixed-rate link delivers nothing.
	c = fixedConfig(1, 20, math.Pi)
	if got := m.CConcurrent(c, 1); got != 0 {
		t.Errorf("fixed-rate under interference = %v, want 0", got)
	}
}
