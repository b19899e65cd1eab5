package sampling_test

import (
	"context"
	"testing"

	"carriersense/internal/core"
	"carriersense/internal/montecarlo"
	"carriersense/internal/sampling"
)

// TestAutoBadSNRChoosesSobol pins section34's sampler choice. On the
// §3.4 example's core/bad-snr point the probes put stratified 4%
// ahead of sobol, too close to separate; settling there on stratified
// would double that point's spend. The full pilot picks sobol.
func TestAutoBadSNRChoosesSobol(t *testing.T) {
	chain, err := sampling.NewChain(nil, sampling.Auto, 0.005, 0)
	if err != nil {
		t.Fatal(err)
	}
	ctx := montecarlo.WithPlan(context.Background(), chain.Executor(), sampling.Auto)
	m := core.New(core.Params{Alpha: 3, SigmaDB: 8, NoiseDB: core.DefaultNoiseDB})
	// Section34's request: seed 2, R_max 20, D 20, D_thresh 40. The
	// pilot does not depend on the budget, so a small one does.
	m.EstimateShadowingExample(ctx, 2, 1024, 20, 20, 40)
	if got := chain.Auto().Choices()[core.KernelBadSNR]; got != sampling.Sobol {
		t.Errorf("core/bad-snr resolved to %q, want sobol (scores %+v)", got, chain.Auto().Scores()[core.KernelBadSNR])
	}
	// 512 + 2·1,024 probe samples, then 3 full pilots of 8,192.
	if got := chain.PilotSpent(); got != 27_136 {
		t.Errorf("PilotSpent = %d, want 27136 (probes, then the full pilot)", got)
	}
}
