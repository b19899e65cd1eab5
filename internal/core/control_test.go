package core

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"carriersense/internal/geometry"
	"carriersense/internal/montecarlo"
	"carriersense/internal/numeric"
)

func TestControlTwinsRegisteredForShadowedKernels(t *testing.T) {
	for _, k := range []string{KernelAverages, KernelSingle, KernelPolicyDiff} {
		if !montecarlo.HasControlTwin(k) {
			t.Errorf("kernel %s has no control twin", k)
		}
	}
}

func TestSigma0PilotIsExact(t *testing.T) {
	// On a σ = 0 environment the twin IS the kernel: the pilot must
	// find β = 1 on every quadrature-backed component, and the adjusted
	// variable is then the constant μ — zero variance, so the cv
	// strategy converges at the driver's first probe.
	req := AveragesRequest(Params{Alpha: 3, SigmaDB: 0, NoiseDB: DefaultNoiseDB},
		55, 40, 55, 9, 4*montecarlo.ShardSize)
	spec, err := montecarlo.PilotControl(req, 1024)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range []int{idxSingle, idxMux, idxConc, idxCS, idxUBMax} {
		if math.Abs(spec.Beta[j]-1) > 1e-9 {
			t.Errorf("component %d: β = %v, want exactly 1 on a σ=0 lane", j, spec.Beta[j])
		}
	}
	// The deferral indicator is a per-point constant at σ = 0: the twin
	// has no variance to regress against, so the pilot's guard leaves
	// it unadjusted.
	if spec.Beta[idxDeferred] != 0 {
		t.Errorf("constant component β = %v, want the 0-variance guard", spec.Beta[idxDeferred])
	}
	for _, j := range []int{idxMax, idxStarved} {
		if spec.Beta[j] != 0 {
			t.Errorf("NaN-mean component %d: β = %v, want 0", j, spec.Beta[j])
		}
	}

	req.Control = spec
	accs, err := montecarlo.RunRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	est := accs[idxSingle].Estimate()
	if est.StdErr > 1e-12 {
		t.Errorf("σ=0 adjusted stderr %v, want 0", est.StdErr)
	}
}

func TestTwinMeansMatchMonteCarlo(t *testing.T) {
	// The quadrature means the pilot regresses against must agree with
	// a Monte Carlo estimate of the twin integrand itself — a wrong μ
	// would bias every cv result, not just inflate variance.
	req := AveragesRequest(Params{Alpha: 3, SigmaDB: 8, NoiseDB: DefaultNoiseDB},
		55, 40, 55, 9, 4*montecarlo.ShardSize)
	m, p, err := pointModel(req.Params, true)
	if err != nil {
		t.Fatal(err)
	}
	twin, err := montecarlo.RunRequest(context.Background(), montecarlo.Request{
		Kernel: KernelAverages, Params: alterSigma(t, req.Params), Seed: 9,
		Samples: 8 * montecarlo.ShardSize, Dim: req.Dim,
	})
	if err != nil {
		t.Fatal(err)
	}
	means := []struct {
		j    int
		quad float64
	}{
		{idxSingle, m.AvgSingleQuad(p.Rmax)},
		{idxConc, m.AvgConcQuad(p.Rmax, p.D)},
		{idxUBMax, discQuadRef(m, p.Rmax, p.D, ubMaxAt)},
	}
	for _, c := range means {
		est := twin[c.j].Estimate()
		tol := 4*est.StdErr + 2e-3*math.Abs(c.quad)
		if math.Abs(est.Mean-c.quad) > tol {
			t.Errorf("component %d: quadrature %v vs σ=0 MC %v (stderr %v)", c.j, c.quad, est.Mean, est.StdErr)
		}
	}
}

// discQuadRef is one σ = 0 disc average of receiver 1's integrand
// f, swept serially with the trigonometry done per node through
// geometry.Polar: the single-component reference the fused, parallel
// twin sweep must match bit for bit.
func discQuadRef(m *Model, rmax, d float64, f func(m *Model, c Config) float64) float64 {
	return numeric.DiscAverage(func(n numeric.DiscNode) float64 {
		p := geometry.Polar(n.R, n.Theta)
		return f(m, Config{D: d, X1: p.X, Y1: p.Y, LSig1: 1, LInt1: 1})
	}, rmax, 48, 24, 1)
}

func concAt(m *Model, c Config) float64 { return m.CConcurrent(c, 1) }

// ubMaxAt is the upper-bound component max(C_conc, C_mux).
func ubMaxAt(m *Model, c Config) float64 {
	return math.Max(m.CConcurrent(c, 1), m.CSingle(c, 1)/2)
}

func TestTwinMeansBitIdenticalAcrossWidths(t *testing.T) {
	// Every twin's means come from one fused sweep over the pool's
	// width; each component must equal its own serial single-component
	// sweep exactly, at every width. D_thresh = 55 makes D = 40 defer
	// (the CS mean is the mux average) and D = 70 not (the conc one).
	t.Cleanup(montecarlo.ResetMaxWorkers)
	for _, pt := range []struct {
		d      float64
		defers bool
	}{{40, true}, {70, false}} {
		req := AveragesRequest(Params{Alpha: 3, SigmaDB: 8, NoiseDB: DefaultNoiseDB}, 55, pt.d, 55, 9, 1)
		m, p, err := pointModel(req.Params, true)
		if err != nil {
			t.Fatal(err)
		}
		conc := discQuadRef(m, p.Rmax, p.D, concAt)
		if got := m.AvgConcQuad(p.Rmax, p.D); got != conc {
			t.Errorf("D=%v: AvgConcQuad %v, serial reference %v", pt.d, got, conc)
		}
		mux := m.AvgMuxQuad(p.Rmax)
		cs, deferred := conc, 0.0
		if pt.defers {
			cs, deferred = mux, 1
		}
		want := map[string][]float64{
			KernelAverages: {
				idxSingle: m.AvgSingleQuad(p.Rmax), idxMux: mux, idxConc: conc, idxCS: cs,
				idxMax: math.NaN(), idxUBMax: discQuadRef(m, p.Rmax, p.D, ubMaxAt),
				idxStarved: math.NaN(), idxDeferred: deferred,
			},
			KernelSingle:     {m.AvgSingleQuad(p.Rmax)},
			KernelPolicyDiff: {conc, mux},
		}
		for _, name := range montecarlo.ControlTwinNames() {
			means, ok := twinMeans[name]
			if !ok || want[name] == nil {
				t.Fatalf("twin %s has no means reference", name)
			}
			for _, width := range []int{1, 0, 7} { // 0: the GOMAXPROCS default
				montecarlo.ResetMaxWorkers()
				if width > 0 {
					if err := montecarlo.SetMaxWorkers(width); err != nil {
						t.Fatal(err)
					}
				}
				got, err := means(req.Params)
				if err != nil {
					t.Fatal(err)
				}
				if len(got) != len(want[name]) {
					t.Fatalf("twin %s: %d means, want %d", name, len(got), len(want[name]))
				}
				for j, w := range want[name] {
					if math.Float64bits(got[j]) != math.Float64bits(w) {
						t.Errorf("D=%v twin %s width %d component %d: %v, want %v", pt.d, name, montecarlo.Workers(), j, got[j], w)
					}
				}
			}
		}
	}
}

// alterSigma rewrites the request params to σ = 0, mirroring
// pointModel with sigma0 set, so the σ = 0 kernel can run as an
// ordinary MC request.
func alterSigma(t *testing.T, raw json.RawMessage) json.RawMessage {
	t.Helper()
	var p pointParams
	if err := json.Unmarshal(raw, &p); err != nil {
		t.Fatal(err)
	}
	p.Env.SigmaDB = 0
	out, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	return out
}
