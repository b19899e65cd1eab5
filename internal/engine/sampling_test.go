package engine

import (
	"context"
	"encoding/json"
	"math"
	"strings"
	"testing"

	"carriersense/internal/montecarlo"
	"carriersense/internal/rng"
)

func init() {
	montecarlo.RegisterKernel("enginetest/uniform", 1, func(params json.RawMessage) (montecarlo.BatchEvalFunc, error) {
		return montecarlo.BatchLoop(1, func(src *rng.Source, out []float64) {
			out[0] = 1 + src.Float64()
		}), nil
	})
}

// registerMCStub registers a scenario that runs one real kernel
// estimation, so engine-level sampler/relerr options have something to
// transform. Like registerStub it registers each name once per process.
func registerMCStub(t *testing.T, name string, samples int) {
	t.Helper()
	if _, ok := Lookup(name); ok {
		return
	}
	Register(Scenario{
		Name:        name,
		Description: "mc stub",
		Figures:     "none",
		NewParams:   func() any { return &stubParams{Seed: 1, Gain: 2} },
		Run: func(rc *RunContext) error {
			est := montecarlo.KernelMeanVec(rc.Context, "enginetest/uniform", nil, 5, samples, 1)[0]
			rc.Metric("mean", est.Mean)
			rc.Metric("n", float64(est.N))
			return nil
		},
	})
}

func TestRunRecordsSamplerInResult(t *testing.T) {
	registerMCStub(t, "mcstub-sampler", 2000)
	for _, tc := range []struct{ sampler, want string }{
		{"", "plain"},
		{"plain", "plain"},
		{"stratified", "stratified"},
	} {
		results, err := Run(context.Background(), "mcstub-sampler", Options{Sampler: tc.sampler})
		if err != nil {
			t.Fatal(err)
		}
		if results[0].Sampler != tc.want {
			t.Errorf("Sampler %q recorded as %q, want %q", tc.sampler, results[0].Sampler, tc.want)
		}
	}
}

func TestRunSamplerChangesEstimatorIdentity(t *testing.T) {
	registerMCStub(t, "mcstub-identity", montecarlo.ShardSize)
	run := func(sampler string) map[string]float64 {
		results, err := Run(context.Background(), "mcstub-identity", Options{Sampler: sampler})
		if err != nil {
			t.Fatal(err)
		}
		return results[0].Metrics
	}
	plain := run("plain")
	strat := run("stratified")
	// Stratified folds each 64-sample block into one observation, and
	// each block puts one draw in every stratum, so the mean of the
	// uniform integrand lands within 1e-3 of 1.5.
	if strat["n"] != plain["n"]/64 {
		t.Errorf("stratified N = %v, want %v", strat["n"], plain["n"]/64)
	}
	if math.Abs(strat["mean"]-1.5) > 1e-3 {
		t.Errorf("stratified mean = %v, want 1.5 within 1e-3", strat["mean"])
	}
	if strat["mean"] == plain["mean"] {
		t.Error("stratified and plain means are equal; the stub is not distinguishing samplers")
	}
}

func TestRunRelErrProducesSamplingLedger(t *testing.T) {
	registerMCStub(t, "mcstub-relerr", 64*montecarlo.ShardSize)
	results, err := Run(context.Background(), "mcstub-relerr", Options{RelErr: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	if res.RelErr != 0.01 {
		t.Errorf("result RelErr = %v, want 0.01", res.RelErr)
	}
	if res.Metrics["sampling_points"] != 1 || res.Metrics["sampling_converged"] != 1 {
		t.Errorf("sampling metrics = %v, want 1 point converged", res.Metrics)
	}
	spent := res.Metrics["sampling_spent"]
	if spent <= 0 || spent >= float64(64*montecarlo.ShardSize) {
		t.Errorf("sampling_spent = %v, want an early stop below the cap", spent)
	}
	if res.Metrics["n"] != spent {
		t.Errorf("estimate N %v != samples spent %v", res.Metrics["n"], spent)
	}
	if !strings.Contains(res.Text, "[adaptive sampling]") {
		t.Errorf("report text missing the sampling summary: %q", res.Text)
	}
	if _, ok := res.csvs["sampling"]; !ok {
		t.Error("sampling.csv artifact not registered")
	}
}

func TestRunValidatesSamplingOptions(t *testing.T) {
	registerMCStub(t, "mcstub-validate", 2000)
	if _, err := Run(context.Background(), "mcstub-validate", Options{Sampler: "latin-hypercube"}); err == nil {
		t.Error("unknown sampler accepted")
	}
	// cv is retired: the error names it and lists what remains.
	_, err := Run(context.Background(), "mcstub-validate", Options{Sampler: "cv"})
	if err == nil || !strings.Contains(err.Error(), `unknown sampler "cv" (want one of [auto plain sobol stratified])`) {
		t.Errorf("-sampler cv: err = %v, want the unknown-sampler error listing auto, plain, sobol and stratified", err)
	}
	if _, err := Run(context.Background(), "mcstub-validate", Options{RelErr: -1}); err == nil {
		t.Error("negative relerr accepted")
	}
	if _, err := Run(context.Background(), "mcstub-validate", Options{MaxSamples: 100}); err == nil {
		t.Error("-max-samples without -relerr accepted")
	}
}

func TestRunAutoSamplerRecordsChoices(t *testing.T) {
	registerMCStub(t, "mcstub-auto", 64*montecarlo.ShardSize)
	results, err := Run(context.Background(), "mcstub-auto",
		Options{Sampler: "auto", RelErr: 0.01})
	if err != nil {
		t.Fatal(err)
	}
	res := results[0]
	winner, ok := res.SamplerChoices["enginetest/uniform"]
	if !ok || winner == "" {
		t.Fatalf("no sampler choice recorded: %v", res.SamplerChoices)
	}
	if _, ok := res.csvs["sampler_choices"]; !ok {
		t.Error("sampler_choices.csv artifact not registered")
	}
	if res.Metrics["sampling_pilot"] <= 0 {
		t.Errorf("pilot spend %v not accounted", res.Metrics["sampling_pilot"])
	}
	if !strings.Contains(res.Text, "[auto sampler]") {
		t.Errorf("report text missing the choice line: %q", res.Text)
	}
}
