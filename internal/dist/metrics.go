package dist

// Registry handles for the distributed layer. Wire byte counters are
// counted at the frame level on whichever side of the wire this
// process is (the coordinator's tx is a worker's rx), so one metric
// family serves both roles; which role a scrape is looking at is
// determined by which process it scraped. Per-worker latency lives in
// a labeled histogram resolved once per host at Remote construction.

import (
	"time"

	"carriersense/internal/obs"
)

var (
	mBatches = obs.Default().Counter("cs_dist_batches_total",
		"Shard batches completed.")
	mRequeues = obs.Default().Counter("cs_dist_requeues_total",
		"Shards returned to the dispatch queue after a worker failure.")
	mShardTimeouts = obs.Default().Counter("cs_dist_shard_timeouts_total",
		"Batches abandoned because no answer arrived within -shard-timeout.")
	mWorkersAbandoned = obs.Default().Counter("cs_dist_workers_abandoned_total",
		"Workers declared dead and removed from the fleet for a run.")
	mProbes = obs.Default().Counter("cs_dist_readmit_probes_total",
		"Readmission health probes sent to dead workers.")
	mWorkersReadmitted = obs.Default().Counter("cs_dist_workers_readmitted_total",
		"Dead workers restored to the fleet after a successful trial batch.")
	mHedges = obs.Default().Counter("cs_dist_hedges_total",
		"Overdue batches speculatively re-dispatched to a second worker.")
	mBytesTx = obs.Default().Counter("cs_dist_wire_bytes_total",
		"Shard-protocol bytes moved, by direction.", obs.Label{Key: "dir", Value: "tx"})
	mBytesRx = obs.Default().Counter("cs_dist_wire_bytes_total",
		"Shard-protocol bytes moved, by direction.", obs.Label{Key: "dir", Value: "rx"})
)

// Worker-side metrics. A Server keeps its own /stats atomics (tests
// run several Servers per process and must not cross-contaminate);
// these registry series aggregate across every Server in the process
// for the /metrics scrape.
var (
	wRequests = obs.Default().Counter("cs_worker_requests_total",
		"Shard batch frames received.")
	wShards = obs.Default().Counter("cs_worker_shards_total",
		"Shards evaluated for coordinators.")
	wInflight = obs.Default().Gauge("cs_worker_inflight_batches",
		"Shard batches currently being evaluated.")
	wDraining = obs.Default().Gauge("cs_worker_draining",
		"1 while the worker is draining for shutdown, else 0.")
	wBatchEvalSeconds = obs.Default().Histogram("cs_worker_batch_eval_seconds",
		"Wall time to evaluate one received shard batch.", nil)
)

func init() {
	start := time.Now()
	obs.Default().GaugeFunc("cs_worker_uptime_seconds",
		"Seconds since this process registered the dist layer.",
		func() float64 { return time.Since(start).Seconds() })
}

// batchSecondsFor resolves the per-worker dispatch→result latency
// histogram. Idempotent per URL, so Remotes rebuilt over the same
// fleet share series.
func batchSecondsFor(workerURL string) *obs.Histogram {
	return obs.Default().Histogram("cs_dist_batch_seconds",
		"Dispatch-to-result wall time for one shard batch, per worker.",
		nil, obs.Label{Key: "worker", Value: workerURL})
}
