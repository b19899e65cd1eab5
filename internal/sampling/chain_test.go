package sampling

import (
	"context"
	"testing"

	"carriersense/internal/montecarlo"
)

func TestNewChainShape(t *testing.T) {
	for _, tc := range []struct {
		sampler      string
		relErr       float64
		driver, auto bool
	}{
		{"", 0, false, false},
		{Sobol, 0.01, true, false},
		{Stratified, 0, false, false},
		{Auto, 0.01, true, true},
	} {
		c, err := NewChain(nil, tc.sampler, tc.relErr, 0)
		if err != nil {
			t.Fatal(err)
		}
		if (c.Driver() != nil) != tc.driver || (c.Auto() != nil) != tc.auto {
			t.Errorf("%q relerr %g: driver %v auto %v", tc.sampler, tc.relErr, c.Driver() != nil, c.Auto() != nil)
		}
		if _, isLocal := c.Executor().(montecarlo.Local); isLocal != (!tc.driver && !tc.auto) {
			t.Errorf("%q: outermost executor %T", tc.sampler, c.Executor())
		}
	}
}

func TestNewChainCountsPilotSpend(t *testing.T) {
	c, err := NewChain(nil, Auto, 0.01, 0)
	if err != nil {
		t.Fatal(err)
	}
	req := driveReq(1, Auto, 8*montecarlo.ShardSize)
	if _, err := c.Executor().EstimateVec(context.Background(), req); err != nil {
		t.Fatal(err)
	}
	// The chain's spend is auto's candidate pilots, one per candidate.
	if got, want := c.PilotSpent(), len(autoCandidates)*autoPilotSamples; got != want {
		t.Errorf("PilotSpent = %d, want %d (one pilot per candidate)", got, want)
	}
}
