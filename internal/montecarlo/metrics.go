package montecarlo

// Registry handles for the Monte Carlo layer, resolved once at init so
// the shard hot path pays only atomic adds. samplesEvaluated also
// *backs* the EvaluatedSamples throughput counter the CLI reports —
// the metric is the source of truth, not a mirror of one.

import (
	"time"

	"carriersense/internal/obs"
)

var (
	samplesEvaluated = obs.Default().Counter("cs_mc_samples_evaluated_total",
		"Monte Carlo samples evaluated in-process or credited by an executor.")
	samplesReused = obs.Default().Counter("cs_mc_samples_reused_total",
		"Monte Carlo samples evaluated from a draw memo's stored records instead of drawn again.")
	shardEvalSeconds = obs.Default().Histogram("cs_mc_shard_eval_seconds",
		"Wall time to evaluate one shard in the local pool.", nil)
)

// instrumentShard runs fn for one shard under the pool's metrics and,
// when a tracer is installed, a per-shard span on the pool worker's
// lane (a tracer thread ID from poolLanes). The disabled-tracer path
// allocates nothing beyond fn itself.
func instrumentShard(lane int, s Shard, fn func(Shard)) {
	tr := obs.CurrentTracer()
	var ts time.Duration
	if tr != nil {
		ts = tr.Now()
	}
	t0 := time.Now()
	fn(s)
	shardEvalSeconds.Observe(time.Since(t0).Seconds())
	if tr != nil {
		tr.Span("shard", "mc", lane, ts,
			map[string]any{"shard": s.Index, "n": s.N})
	}
}
