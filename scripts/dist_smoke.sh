#!/usr/bin/env bash
# Distributed smoke test: start two `cs serve` workers on localhost and
# run one scenario five ways — locally, over the fleet, through -cache
# over the fleet cold and then warm, and with full observability
# (-trace + -metrics-listen) — then require every run to be
# byte-identical to the local one; the warm run must move no shards. A
# sampled leg (the sobol sampler to a -relerr target) runs locally and
# over the fleet and must be byte-identical too. The /stats endpoints
# must show the fleet moved shards over frame streams, the /metrics scrapes must be live Prometheus text, and
# a SIGTERM'd worker must drain in-flight batches and exit 0. CI runs
# this; it is also handy locally:
#
#   scripts/dist_smoke.sh
#
# Set DIST_SMOKE_METRICS=path to keep the observability run's
# metrics.json after the script's scratch dir is removed (CI uploads
# it as a build artifact).
set -euo pipefail
cd "$(dirname "$0")/.."

work=$(mktemp -d)
cleanup() {
  kill $(jobs -p) 2>/dev/null || true
  wait 2>/dev/null || true # reap: no orphaned cs serve outliving the script
  rm -rf "$work"
}
trap cleanup EXIT

go build -o "$work/cs" ./cmd/cs

"$work/cs" serve -listen 127.0.0.1:18041 2>"$work/worker1.log" &
worker1=$!
"$work/cs" serve -listen 127.0.0.1:18042 2>"$work/worker2.log" &

for port in 18041 18042; do
  ok=""
  for _ in $(seq 1 50); do
    if curl -sf "http://127.0.0.1:$port/healthz" >/dev/null 2>&1; then
      ok=1
      break
    fi
    sleep 0.2
  done
  if [ -z "$ok" ]; then
    echo "worker on :$port never became healthy" >&2
    exit 1
  fi
done

fleet=127.0.0.1:18041,127.0.0.1:18042
scenario=curves

stat_sum() { # <json field> -> field summed across both workers
  local total=0 v
  for port in 18041 18042; do
    v=$(curl -sf "http://127.0.0.1:$port/stats" |
      grep -o "\"$1\":[0-9]*" | head -1 | cut -d: -f2)
    total=$((total + ${v:-0}))
  done
  echo "$total"
}

require_identical() { # <dir> <label> [<reference run dir>, default the local run]
  local got_dir want_dir=${3:-$local_dir}
  got_dir=$(echo "$1"/*)
  for f in output.txt result.json; do
    if ! cmp -s "$want_dir/$f" "$got_dir/$f"; then
      echo "$2 run differs from local in $f:" >&2
      diff "$want_dir/$f" "$got_dir/$f" >&2 || true
      exit 1
    fi
  done
}

"$work/cs" run "$scenario" -scale smoke -seed 7 -quiet -out "$work/local"
local_dir=$(echo "$work"/local/*)

# Fleet run: persistent streams, length-prefixed frames. Must be
# bit-identical, must open streams, and must move shards over them.
"$work/cs" run "$scenario" -scale smoke -seed 7 -quiet \
  -workers "$fleet" -out "$work/fleet"
require_identical "$work/fleet" "fleet"
if [ "$(stat_sum streams)" -eq 0 ] || [ "$(stat_sum shards)" -eq 0 ]; then
  echo "fleet run moved no shards over streams — the run was not distributed" >&2
  exit 1
fi

# Sampled leg: sobol with a -relerr target evaluates every kernel one
# sample per call over scrambled blocks, in probe and ranged rounds, on
# the workers as well as locally. The fleet run must match the local
# one.
sampled=(-scale smoke -seed 7 -sampler sobol -relerr 0.01 -quiet)
"$work/cs" run "$scenario" "${sampled[@]}" -out "$work/sobol-local"
"$work/cs" run "$scenario" "${sampled[@]}" -workers "$fleet" -out "$work/sobol-fleet"
require_identical "$work/sobol-fleet" "sampled (sobol) fleet" "$(echo "$work"/sobol-local/*)"

# Cache through the fleet: the cold run evaluates on the workers and
# fills the cache; the warm run is served from it and must move no
# shards. Both must be byte-identical to the local run.
cached=(-scale smoke -seed 7 -quiet -workers "$fleet" -cache -cache-dir "$work/cache")
before=$(stat_sum shards)
"$work/cs" run "$scenario" "${cached[@]}" -out "$work/cache-cold"
require_identical "$work/cache-cold" "cold cache"
cold_shards=$(($(stat_sum shards) - before))
if [ "$cold_shards" -eq 0 ]; then
  echo "cold cache run moved no shards through the fleet" >&2
  exit 1
fi
before=$(stat_sum shards)
"$work/cs" run "$scenario" "${cached[@]}" -out "$work/cache-warm"
require_identical "$work/cache-warm" "warm cache"
warm_shards=$(($(stat_sum shards) - before))
if [ "$warm_shards" -ne 0 ]; then
  echo "warm cache run moved $warm_shards shards; the cache should serve every estimation" >&2
  exit 1
fi

# Observability run: a Perfetto trace plus a live coordinator /metrics
# endpoint, still byte-identical to the local run — instrumentation
# must be observationally inert.
"$work/cs" run "$scenario" -scale smoke -seed 7 -quiet \
  -workers "$fleet" \
  -trace "$work/trace.json" -metrics-listen 127.0.0.1:18049 \
  -out "$work/traced"
require_identical "$work/traced" "traced"
if ! grep -q '"traceEvents"' "$work/trace.json"; then
  echo "-trace wrote no trace_event document" >&2
  exit 1
fi
traced_dir=$(echo "$work"/traced/*)
for f in metrics.json timings.csv; do
  if [ ! -s "$traced_dir/$f" ]; then
    echo "observability run left no $f" >&2
    exit 1
  fi
done
if ! grep -q '"evaluated_samples"' "$traced_dir/metrics.json"; then
  echo "metrics.json lacks the run summary:" >&2
  cat "$traced_dir/metrics.json" >&2
  exit 1
fi
if [ -n "${DIST_SMOKE_METRICS:-}" ]; then
  cp "$traced_dir/metrics.json" "$DIST_SMOKE_METRICS"
fi

# Worker /metrics must be Prometheus text with live counters: after
# the runs above, evaluated shards must show up in the scrape.
metrics_shards=0
for port in 18041 18042; do
  scrape=$(curl -sf "http://127.0.0.1:$port/metrics")
  for family in cs_worker_requests_total cs_worker_shards_total \
    cs_worker_inflight_batches cs_worker_batch_eval_seconds; do
    if ! echo "$scrape" | grep -q "^# TYPE $family "; then
      echo "worker :$port /metrics lacks $family; scrape was:" >&2
      echo "$scrape" >&2
      exit 1
    fi
  done
  v=$(echo "$scrape" | grep '^cs_worker_shards_total ' | cut -d' ' -f2 | cut -d. -f1)
  metrics_shards=$((metrics_shards + ${v:-0}))
done
if [ "$metrics_shards" -eq 0 ]; then
  echo "worker /metrics shard counters are zero after distributed runs" >&2
  exit 1
fi

# Graceful drain: /stats must expose the drain surface, and a SIGTERM'd
# worker must finish in-flight batches and exit 0 with the drain notice.
stats=$(curl -sf "http://127.0.0.1:18041/stats")
for field in uptime_seconds inflight_batches draining; do
  if ! echo "$stats" | grep -q "\"$field\""; then
    echo "/stats lacks \"$field\": $stats" >&2
    exit 1
  fi
done
if ! echo "$stats" | grep -q '"draining":false'; then
  echo "idle worker reports draining: $stats" >&2
  exit 1
fi
kill -TERM "$worker1"
if ! wait "$worker1"; then
  echo "SIGTERM'd worker exited non-zero" >&2
  cat "$work/worker1.log" >&2
  exit 1
fi
if ! grep -q 'drained in-flight shard batches and stopped' "$work/worker1.log"; then
  echo "worker stderr lacks the drain notice:" >&2
  cat "$work/worker1.log" >&2
  exit 1
fi

echo "distributed smoke OK: '$scenario' is bit-identical across 2 workers (+sobol sampled, +cache cold $cold_shards shards then warm 0; +trace/metrics inert, $metrics_shards shards scraped, drain clean)"
