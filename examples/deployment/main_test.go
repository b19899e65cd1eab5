package main

// Example runs the deployment walk-through and pins its printout: the
// model's estimates are deterministic for a fixed seed at any pool width.
func Example() {
	main()
	// Output:
	// Step 1: per-scenario optimal thresholds (alpha=3, sigma=8dB)
	// deployment  Rmax  optimal Dthresh  regime        edge SNR
	// ----------  ----  ---------------  ------------  --------
	// apartment   15    35               short-range   30 dB
	// office      40    52               intermediate  17 dB
	// warehouse   90    63               long-range    6 dB
	// campus      150   47               long-range    0 dB
	//
	// Step 2: split-the-difference factory threshold: D ~= 41
	//
	// Step 3: efficiency of the compromise threshold per deployment
	// deployment  compromise eff  tuned eff  cost
	// ----------  --------------  ---------  --------
	// apartment   92%             92%        0.3 pts
	// office      95%             94%        -0.7 pts
	// warehouse   97%             96%        -0.6 pts
	// campus      97%             97%        -0.1 pts
	//
	// Conclusion (the paper's): one threshold serves every deployment;
	// tuning buys at most a point or two of efficiency.
}
