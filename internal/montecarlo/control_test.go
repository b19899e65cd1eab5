package montecarlo

import (
	"context"
	"encoding/json"
	"math"
	"testing"

	"carriersense/internal/rng"
)

// Test kernels for the control-variate machinery. "ctl/linear" draws
// one uniform u and returns [a + b·u, u²]; its twin returns [u, NaN]
// (exact mean 1/2 for component 0, no exact mean for component 1).
// Because component 0 is an affine function of the twin, the optimal
// β reduces its variance to exactly zero.
func init() {
	RegisterKernel("ctl/linear", 2, func(params json.RawMessage) (BatchEvalFunc, error) {
		var p [2]float64
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, err
		}
		return BatchLoop(2, func(src *rng.Source, out []float64) {
			u := src.Float64()
			out[0] = p[0] + p[1]*u
			out[1] = u * u
		}), nil
	})
	RegisterControlTwin("ctl/linear", ControlTwin{
		Eval: func(params json.RawMessage) (BatchEvalFunc, error) {
			return BatchLoop(2, func(src *rng.Source, out []float64) {
				u := src.Float64()
				out[0] = u
				out[1] = u
			}), nil
		},
		Means: func(params json.RawMessage) ([]float64, error) {
			return []float64{0.5, math.NaN()}, nil
		},
	})
}

func linearReq(samples int) Request {
	raw, _ := json.Marshal([2]float64{3, 4})
	// Sampler stays plain: the adjustment rides on Request.Control
	// alone (the "cv" name lives in internal/sampling, which this
	// package cannot import).
	return Request{Kernel: "ctl/linear", Params: raw, Seed: 11, Samples: samples, Dim: 2}
}

func TestPilotControlIsDeterministic(t *testing.T) {
	req := linearReq(ShardSize)
	a, err := PilotControl(req, 1000)
	if err != nil {
		t.Fatal(err)
	}
	b, err := PilotControl(req, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Errorf("repeated pilots differ: %+v vs %+v", a, b)
	}
}

func TestPilotControlFindsExactBeta(t *testing.T) {
	// Component 0 = 3 + 4·g: the regression slope is exactly 4 and the
	// exact twin mean is 1/2. Component 1 has a NaN twin mean, so its
	// β must be forced to 0.
	spec, err := PilotControl(linearReq(ShardSize), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(spec.Beta[0]-4) > 1e-9 {
		t.Errorf("beta[0] = %v, want 4 (affine dependence is exact)", spec.Beta[0])
	}
	if spec.Mean[0] != 0.5 {
		t.Errorf("mean[0] = %v, want the exact twin mean 0.5", spec.Mean[0])
	}
	if spec.Beta[1] != 0 || spec.Mean[1] != 0 {
		t.Errorf("NaN-mean component kept beta %v mean %v, want 0/0", spec.Beta[1], spec.Mean[1])
	}
}

func TestControlAdjustedVarianceIsZeroWhenExact(t *testing.T) {
	// With β = 4 and μ = 1/2, every adjusted sample of component 0 is
	// the constant 3 + 4·μ = 5 and the tracked variance collapses to 0
	// — the σ = 0 lane behavior that lets a cv point converge in one
	// probe round.
	req := linearReq(2 * ShardSize)
	spec, err := PilotControl(req, 1000)
	if err != nil {
		t.Fatal(err)
	}
	req.Control = spec
	accs, err := RunRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	est := accs[0].Estimate()
	if math.Abs(est.Mean-5) > 1e-9 {
		t.Errorf("adjusted mean %v, want 5", est.Mean)
	}
	if est.StdErr > 1e-12 {
		t.Errorf("adjusted stderr %v, want 0 (exact control)", est.StdErr)
	}
	// The unadjusted component keeps its ordinary noise.
	if accs[1].Estimate().StdErr == 0 {
		t.Error("β=0 component reports zero stderr; adjustment leaked")
	}
}

func TestControlSpecTravelsInRequestIdentity(t *testing.T) {
	// Same samples, different β: the results must differ (the spec is
	// part of what is being computed), and a round-tripped request
	// (JSON, as the wire carries it) must reproduce bit-identically.
	req := linearReq(ShardSize)
	req.Control = &ControlSpec{Beta: []float64{4, 0}, Mean: []float64{0.5, 0}}
	a, err := RunRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	var rt Request
	if err := json.Unmarshal(raw, &rt); err != nil {
		t.Fatal(err)
	}
	b, err := RunRequest(context.Background(), rt)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] != b[0] || a[1] != b[1] {
		t.Error("JSON round-tripped control request is not bit-identical")
	}

	req.Control = &ControlSpec{Beta: []float64{2, 0}, Mean: []float64{0.5, 0}}
	c, err := RunRequest(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if a[0] == c[0] {
		t.Error("different β produced identical accumulators; control is not applied")
	}
}

func TestControlSpecValidation(t *testing.T) {
	req := linearReq(ShardSize)
	req.Control = &ControlSpec{Beta: []float64{1}, Mean: []float64{0.5}}
	if err := req.Validate(); err == nil {
		t.Error("dim-mismatched control spec accepted")
	}
	req.Control = &ControlSpec{Beta: []float64{math.NaN(), 0}, Mean: []float64{0, 0}}
	if err := req.Validate(); err == nil {
		t.Error("NaN β accepted")
	}
	req.Control = &ControlSpec{Beta: []float64{1, 0}, Mean: []float64{0.5, 0}}
	if err := req.Validate(); err != nil {
		t.Errorf("valid control spec rejected: %v", err)
	}
}

func TestPilotControlRequiresTwin(t *testing.T) {
	req := Request{Kernel: "mc/mean", Params: json.RawMessage(`1`), Seed: 1, Samples: ShardSize, Dim: 1}
	if _, err := PilotControl(req, 100); err == nil {
		t.Error("pilot on a twinless kernel succeeded")
	}
}

func TestControlSpecEqual(t *testing.T) {
	a := &ControlSpec{Beta: []float64{1, 2}, Mean: []float64{3, 4}}
	b := &ControlSpec{Beta: []float64{1, 2}, Mean: []float64{3, 4}}
	c := &ControlSpec{Beta: []float64{1, 2.5}, Mean: []float64{3, 4}}
	var nilSpec *ControlSpec
	if !a.Equal(b) || a.Equal(c) || a.Equal(nilSpec) || !nilSpec.Equal(nil) {
		t.Error("ControlSpec.Equal misbehaves")
	}
}
