package experiments

import (
	"context"
	"fmt"

	"carriersense/internal/core"
	"carriersense/internal/engine"
	"carriersense/internal/montecarlo"
	"carriersense/internal/plot"
	"carriersense/internal/sampling"
)

// SamplingBenchParams configure the sampler shoot-out scenario: the
// same throughput estimation points driven to the same relative-error
// target under every registered sampler, reporting samples-to-target.
type SamplingBenchParams struct {
	Alpha   float64
	SigmaDB float64
	Rmax    float64
	DThresh float64
	DValues []float64 // estimation points (inter-sender distances)
	Target  float64   // relative standard error target per point
	// MaxSamples caps each driven point; 0 derives a generous cap from
	// the scale so convergence, not the cap, decides.
	MaxSamples int
	Seed       uint64
}

// DefaultSamplingBench compares the samplers across the paper's
// Figure 9 environment (σ = 8 dB — both placement and shadowing
// variance in play) at near, threshold, and far distances.
func DefaultSamplingBench() SamplingBenchParams {
	return SamplingBenchParams{
		Alpha:   3,
		SigmaDB: 8,
		Rmax:    55,
		DThresh: 55,
		DValues: []float64{20, 55, 120},
		Target:  0.005,
		Seed:    1,
	}
}

// SamplerComparison is the outcome for one strategy.
type SamplerComparison struct {
	Sampler   string
	Spent     int     // samples to reach the target across all points (pilots included)
	Pilot     int     // of Spent, samples that went to auto's pilots
	Converged int     // points that reached the target
	Points    int     // points driven
	Savings   float64 // fraction of plain's samples avoided (0 for plain)
}

// SamplingBench drives the averages kernel at each D point to the
// target under each sampler, through its own local convergence driver
// (the estimation work is the benchmark itself, so the run bypasses
// any -workers/-cache executor and any engine-level -relerr driver):
// each sampler runs in a plan of its own over its own local chain,
// derived from ctx for cancellation.
func SamplingBench(ctx context.Context, p SamplingBenchParams, scale Scale) []SamplerComparison {
	m := core.New(core.Params{Alpha: p.Alpha, SigmaDB: p.SigmaDB, NoiseDB: core.DefaultNoiseDB})
	cap := p.MaxSamples
	if cap <= 0 {
		cap = scale.mcSamples() * 64
	}
	var out []SamplerComparison
	var plainSpent int
	for _, name := range []string{
		sampling.Plain, sampling.Stratified, sampling.Sobol, sampling.Auto,
	} {
		chain, err := sampling.NewChain(nil, name, p.Target, cap)
		if err != nil {
			panic(err) // options are static; a failure is a programming error
		}
		pctx := montecarlo.WithPlan(ctx, chain.Executor(), name)
		for i, d := range p.DValues {
			// Same per-point seed schedule as core.Curves, so the
			// comparison covers the exact estimations the scenarios run.
			m.EstimateAverages(pctx, p.Seed+uint64(i)*7919, cap, p.Rmax, d, p.DThresh)
		}
		s := chain.Driver().Summarize()
		c := SamplerComparison{Sampler: name, Spent: s.Spent, Pilot: chain.PilotSpent(), Converged: s.Converged, Points: s.Points}
		c.Spent += c.Pilot // pilots are real evaluations; the ledger is honest
		if name == sampling.Plain {
			plainSpent = c.Spent
		} else if plainSpent > 0 {
			c.Savings = 1 - float64(c.Spent)/float64(plainSpent)
		}
		out = append(out, c)
	}
	return out
}

func init() {
	engine.Register(engine.Scenario{
		Name:        "sampling",
		Description: "Variance-reduction shoot-out: samples needed per sampler to hit a RelErr target",
		Figures:     "throughput infrastructure (ROADMAP: smarter sampling)",
		NewParams:   func() any { p := DefaultSamplingBench(); return &p },
		Run: func(rc *engine.RunContext) error {
			p := *rc.Params.(*SamplingBenchParams)
			res := SamplingBench(rc.Context, p, scale(rc))
			tbl := plot.Table{
				Title: fmt.Sprintf("samples to RelErr <= %g on core/averages (Rmax=%.0f, sigma=%.0fdB, D=%v)",
					p.Target, p.Rmax, p.SigmaDB, p.DValues),
				Headers: []string{"sampler", "samples", "pilot", "per point", "converged", "vs plain"},
			}
			for _, c := range res {
				vs := "—"
				if c.Sampler != sampling.Plain {
					vs = fmt.Sprintf("%+.0f%%", -100*c.Savings)
				}
				perPoint := 0
				if c.Points > 0 {
					perPoint = c.Spent / c.Points
				}
				tbl.AddRow(c.Sampler, fmt.Sprintf("%d", c.Spent), fmt.Sprintf("%d", c.Pilot),
					fmt.Sprintf("%d", perPoint),
					fmt.Sprintf("%d/%d", c.Converged, c.Points), vs)
				rc.Metric(fmt.Sprintf("spent_%s", c.Sampler), float64(c.Spent))
				rc.Metric(fmt.Sprintf("converged_%s", c.Sampler), float64(c.Converged))
				if c.Sampler != sampling.Plain {
					rc.Metric(fmt.Sprintf("savings_%s", c.Sampler), c.Savings)
				}
			}
			rc.Table("sampling", tbl)
			return nil
		},
	})
}
