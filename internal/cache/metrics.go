package cache

// Registry handles for the cache layer. Per-Executor Stats are the
// record of cache traffic (`cs cache stats` and the bench harness read
// them; tests build many independent executors, which must not
// cross-contaminate). The process-wide registry keeps two series: the
// quarantine counter, so that an integrity check that fired shows in
// a run's metrics.json, and the lookup latency behind timings.csv's
// cache_lookup column.

import "carriersense/internal/obs"

var (
	mCorrupt = obs.Default().Counter("cs_cache_corrupt_total",
		"Disk entries that failed integrity verification and were quarantined.")
	mLookupSeconds = obs.Default().Histogram("cs_cache_lookup_seconds",
		"Wall time to resolve a request against memory and disk layers, before any inner evaluation.", nil)
)
