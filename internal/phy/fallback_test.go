package phy_test

import (
	"context"
	"testing"

	"carriersense/internal/engine"
	_ "carriersense/internal/experiments"
	"carriersense/internal/phy"
)

// TestExactFallbackShare bounds how often a reception's survival
// bracket cannot decide it and the exact reference loop runs: at most
// 2% of the receptions of a bench-scale testbed run at seed 1.
func TestExactFallbackShare(t *testing.T) {
	const maxShare = 0.02
	stop := phy.CountDecisions()
	_, err := engine.Run(context.Background(), "testbed", engine.Options{Seed: "1"})
	receptions, exact := stop()
	if err != nil {
		t.Fatal(err)
	}
	share := float64(exact) / float64(receptions)
	t.Logf("%d of %d receptions (%.3f%%) fell back on the exact loop", exact, receptions, 100*share)
	if receptions == 0 || share > maxShare {
		t.Errorf("exact fallback share %.4f over %d receptions, want <= %v", share, receptions, maxShare)
	}
}
