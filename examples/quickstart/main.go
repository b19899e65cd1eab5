// Quickstart: evaluate carrier sense for a two-pair wireless scenario
// using the paper's analytical model.
//
// The scenario: two 802.11-like sender-receiver pairs in a typical
// indoor environment (path loss exponent 3, 8 dB shadowing). We ask
// the model the paper's central questions: how much throughput does
// each MAC policy deliver, how close is carrier sense to optimal, and
// what threshold should the hardware ship with?
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"

	"carriersense/internal/core"
)

func main() {
	ctx := context.Background()
	// The paper's default environment: α = 3, σ = 8 dB, noise floor
	// -65 dB below unit-distance power (so r = 20 ≈ 26 dB SNR).
	model := core.New(core.DefaultParams())

	// A mid-size WLAN: receivers within R_max = 40 of their senders,
	// competing senders D = 55 apart, factory threshold D_thresh = 55.
	const (
		rmax    = 40.0
		d       = 55.0
		dThresh = 55.0
		samples = 200_000
		seed    = 1
	)

	avg := model.EstimateAverages(ctx, seed, samples, rmax, d, dThresh)
	fmt.Println("Two competing pairs, Rmax=40, D=55, Dthresh=55:")
	fmt.Printf("  multiplexing: %5.2f capacity units\n", avg.Mux.Mean)
	fmt.Printf("  concurrency:  %5.2f\n", avg.Conc.Mean)
	fmt.Printf("  carrier sense:%5.2f\n", avg.CS.Mean)
	fmt.Printf("  optimal:      %5.2f\n", avg.Max.Mean)
	fmt.Printf("  CS efficiency: %.0f%% of optimal\n", 100*avg.Efficiency())
	fmt.Printf("  CS defers %.0f%% of the time at this separation\n\n",
		100*avg.DeferredFraction.Mean)

	// Where does this network sit on the short/long-range spectrum?
	dOpt := model.OptimalThreshold(ctx, seed, samples/4, rmax)
	regime := core.Classify(rmax, dOpt)
	fmt.Printf("Optimal threshold for Rmax=%.0f: D ~= %.0f (%s regime, edge SNR %.0f dB)\n",
		rmax, dOpt, regime, model.EdgeSNRdB(rmax))

	// The paper's factory recommendation: split the difference across
	// the hardware's whole operating span (802.11g-like: r = 20..120).
	factory := model.RecommendFactoryThreshold(ctx, seed, samples/4, 20, 120)
	fmt.Printf("Factory threshold across Rmax 20..120: D ~= %.0f (paper: ~55)\n\n", factory)

	// How badly can shadowing mislead the sender about its receiver's
	// SINR? (§3.4's σ√3 bound.)
	fmt.Printf("SNR-estimate uncertainty under shadowing: %.1f dB (~%.1fx in distance)\n",
		model.SNREstimateUncertaintyDB(),
		model.LumpedDistanceFactor(model.SNREstimateUncertaintyDB()))
}
