package main

// Example runs the quickstart and pins its printout: the model's
// estimates are deterministic for a fixed seed at any pool width.
func Example() {
	main()
	// Output:
	// Two competing pairs, Rmax=40, D=55, Dthresh=55:
	//   multiplexing:  2.71 capacity units
	//   concurrency:   2.79
	//   carrier sense: 2.75
	//   optimal:       3.20
	//   CS efficiency: 86% of optimal
	//   CS defers 50% of the time at this separation
	//
	// Optimal threshold for Rmax=40: D ~= 53 (intermediate regime, edge SNR 17 dB)
	// Factory threshold across Rmax 20..120: D ~= 49 (paper: ~55)
	//
	// SNR-estimate uncertainty under shadowing: 13.9 dB (~2.9x in distance)
}
