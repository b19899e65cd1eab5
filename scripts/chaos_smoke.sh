#!/usr/bin/env bash
# Chaos smoke test: the deterministic fault-injection layer driven end
# to end. One schedule string is handed to every worker; each installs
# only the rules addressed to it:
#
#   worker1:crash@batch2   kill -9 semantics mid-run (os.Exit(3))
#   worker2:slow=750ms     a straggler for hedged dispatch to beat
#   worker3:refuse=4       transient refusals: abandoned after 3, the
#                          4th eats one readmission probe, then heals
#   cache:flip=1           one disk-cache bit flip (coordinator side,
#                          exercised in the separate cache leg)
#
# The contract under all of that: byte-identical artifacts. A crashed
# worker, a straggler, a healed-and-readmitted worker, and a corrupt
# cache entry must change *nothing* about the results — only the
# timeline. The script also asserts the failures actually happened
# (worker1 exited 3, worker3 served after readmission, the straggler
# was hedged, the flipped entry was quarantined) so a regression cannot
# pass by never injecting anything. CI runs this; it is also handy locally:
#
#   scripts/chaos_smoke.sh
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

require_identical() { # <dir> <label>
  local got_dir
  got_dir=$(echo "$1"/*)
  for f in output.txt result.json; do
    if ! cmp -s "$local_dir/$f" "$got_dir/$f"; then
      echo "$2 run differs from local in $f:" >&2
      diff "$local_dir/$f" "$got_dir/$f" >&2 || true
      exit 1
    fi
  done
}

# --- cache-corruption leg ---------------------------------------------
# Warm the persistent cache on a cheap scenario, then re-run with one
# injected disk-load bit flip: the damaged entry must read as a
# quarantined miss and be recomputed, leaving artifacts byte-identical.
"$work/cs" run curves -scale smoke -seed 7 -quiet -out "$work/cachelocal"
local_dir=$(echo "$work"/cachelocal/*)

"$work/cs" run curves -scale smoke -seed 7 -quiet \
  -cache -cache-dir "$work/cache" -out "$work/cachewarm"
require_identical "$work/cachewarm" "cache-warm"

corrupt_log="$work/corrupt.log"
"$work/cs" run curves -scale smoke -seed 7 -quiet \
  -cache -cache-dir "$work/cache" -fault 'cache:flip=1,seed=99' \
  -out "$work/cachechaos" 2>"$corrupt_log"
require_identical "$work/cachechaos" "cache-corruption"
if ! grep -q 'corrupt disk entries quarantined and recomputed' "$corrupt_log"; then
  echo "corrupted cache entry was not detected; stderr was:" >&2
  cat "$corrupt_log" >&2
  exit 1
fi
if [ -z "$(ls "$work/cache/quarantine" 2>/dev/null)" ]; then
  echo "corrupt entry was not moved to the quarantine sidecar" >&2
  exit 1
fi
# The run's own metrics.json must record the injection: a chaos run
# whose fault counters read zero proves nothing. The registry key is
# cs_fault_injected_total{kind="flip"}; inside the JSON document its
# quotes are backslash-escaped, so strip the escapes before matching.
cachechaos_dir=$(echo "$work"/cachechaos/*)
flips=$(tr -d '\\' <"$cachechaos_dir/metrics.json" |
  grep -o 'cs_fault_injected_total{kind="flip"}": *[0-9.]*' |
  head -1 | grep -o '[0-9.]*$' | cut -d. -f1 || true)
if [ "${flips:-0}" -eq 0 ]; then
  echo "metrics.json records no cs_fault_injected_total{kind=flip} — the flip never fired:" >&2
  cat "$cachechaos_dir/metrics.json" >&2
  exit 1
fi

# --- fleet-chaos leg --------------------------------------------------
# Four workers under one schedule: a crasher, a straggler, a transient
# refuser, and one honest machine. Hedging beats the straggler,
# readmission heals the refuser mid-soak, and every artifact must still
# be byte-identical to local. The scenario config matters: each
# estimation must span many dispatch batches (samples=300000 ≈ 10
# batches of 8 shards) so the whole fleet gets work — tiny estimations
# fit in one batch and a single warm stream would serve them all,
# leaving the fault schedule untouched.
scenario_args=(multi -scale bench -set maxn=3 -set samples=300000 -seed 7)
"$work/cs" run "${scenario_args[@]}" -quiet -out "$work/local"
local_dir=$(echo "$work"/local/*)

schedule='worker1:crash@batch2,worker2:slow=750ms,worker3:refuse=4,seed=7'
declare -A worker_pid
for i in 1 2 3 4; do
  "$work/cs" serve -listen "127.0.0.1:1806$i" \
    -fault "$schedule" -fault-id "worker$i" 2>"$work/worker$i.log" &
  worker_pid[$i]=$!
done

# Health-wait on everyone except worker3: its refusal budget is part of
# the choreography and a startup poll would eat it. The workers are one
# binary; three up means the fourth's listener is up too.
for i in 1 2 4; do
  ok=""
  for _ in $(seq 1 50); do
    if curl -sf "http://127.0.0.1:1806$i/healthz" >/dev/null 2>&1; then
      ok=1
      break
    fi
    sleep 0.2
  done
  if [ -z "$ok" ]; then
    echo "worker$i never became healthy" >&2
    cat "$work/worker$i.log" >&2
    exit 1
  fi
done

fleet=127.0.0.1:18061,127.0.0.1:18062,127.0.0.1:18063,127.0.0.1:18064
chaos_log="$work/chaos.log"
"$work/cs" run "${scenario_args[@]}" -quiet \
  -workers "$fleet" -hedge 0.9 -readmit-base 150ms \
  -out "$work/chaos" 2>"$chaos_log"
require_identical "$work/chaos" "fleet-chaos"

# The crasher must have actually died, with the injected exit code. Its
# os.Exit races the tail of the batch that triggered it, so allow a
# short grace before declaring it immortal.
for _ in $(seq 1 50); do
  kill -0 "${worker_pid[1]}" 2>/dev/null || break
  sleep 0.2
done
if kill -0 "${worker_pid[1]}" 2>/dev/null; then
  echo "worker1 survived its crash@batch2 injection; its log:" >&2
  cat "$work/worker1.log" >&2
  exit 1
fi
rc=0
wait "${worker_pid[1]}" || rc=$?
if [ "$rc" -ne 3 ]; then
  echo "worker1 exited $rc, want the injected crash exit 3" >&2
  cat "$work/worker1.log" >&2
  exit 1
fi
if ! grep -q 'fault: injected crash at batch 2' "$work/worker1.log"; then
  echo "worker1 stderr lacks the crash notice:" >&2
  cat "$work/worker1.log" >&2
  exit 1
fi

# The refuser must have been readmitted and then actually served work.
w3_shards=$(curl -sf "http://127.0.0.1:18063/stats" |
  grep -o '"shards":[0-9]*' | head -1 | cut -d: -f2)
if [ "${w3_shards:-0}" -eq 0 ]; then
  echo "worker3 served no shards after readmission; coordinator log:" >&2
  cat "$chaos_log" >&2
  exit 1
fi

# The coordinator's run metrics must record the healing machinery
# firing: workers declared dead, the refuser readmitted, and hedges
# raced against the straggler.
chaos_dir=$(echo "$work"/chaos/*)
metric() { # <registry family> -> integer value (0 when absent)
  grep -o "\"$1[^\"]*\": *[0-9.]*" "$chaos_dir/metrics.json" |
    head -1 | grep -o '[0-9.]*$' | cut -d. -f1 || true
}
readmitted=$(metric cs_dist_workers_readmitted_total)
abandoned=$(metric cs_dist_workers_abandoned_total)
hedges=$(metric cs_dist_hedges_total)
if [ "${readmitted:-0}" -eq 0 ]; then
  echo "cs_dist_workers_readmitted_total is zero — worker3 never healed; metrics:" >&2
  cat "$chaos_dir/metrics.json" >&2
  exit 1
fi
if [ "${abandoned:-0}" -eq 0 ]; then
  echo "cs_dist_workers_abandoned_total is zero — nothing was ever declared dead" >&2
  exit 1
fi
if [ "${hedges:-0}" -eq 0 ]; then
  echo "cs_dist_hedges_total is zero — no batch was hedged around the straggler; metrics:" >&2
  cat "$chaos_dir/metrics.json" >&2
  exit 1
fi

echo "chaos smoke OK: byte-identical through a crashed worker, a 750ms" \
  "straggler ($hedges hedges), a refuser readmitted mid-soak (now at" \
  "$w3_shards shards), and a quarantined cache flip"
