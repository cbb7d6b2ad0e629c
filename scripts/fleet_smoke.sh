#!/usr/bin/env bash
# Multi-node fleet smoke: two real inferad processes behind a real
# inferaroute, sharing a work root. Registers an ensemble and asks through
# the router, kill -9's one node mid-life, and proves the fleet keeps
# answering with zero failed asks (including the shards the corpse owned,
# which fail over to the survivor and revive from the shared work root),
# then restarts it and checks that the router readmits it to the ring.
#
# Usage: scripts/fleet_smoke.sh [bindir]
#   bindir: directory holding prebuilt haccgen/inferad/inferaroute binaries
#           (default: build into a temp dir with `go build`).
set -euo pipefail

cd "$(dirname "$0")/.."
TMP=$(mktemp -d /tmp/fleet-smoke-XXXXXX)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  # The nodes persist cache.json and sweep trails under $TMP as they shut
  # down: remove the tree only once every one has exited.
  for pid in "${PIDS[@]:-}"; do [ -n "$pid" ] && wait "$pid" 2>/dev/null || true; done
  rm -rf "$TMP"
}
trap cleanup EXIT

BIN=${1:-"$TMP/bin"}
if [ ! -x "$BIN/inferad" ]; then
  mkdir -p "$BIN"
  go build -o "$BIN" ./cmd/haccgen ./cmd/inferad ./cmd/inferaroute
fi

say() { echo "fleet_smoke: $*"; }

wait_ready() { # addr timeout_s
  for _ in $(seq 1 $((10 * $2))); do
    if curl -fsS "http://$1/healthz" >/dev/null 2>&1; then return 0; fi
    sleep 0.1
  done
  say "FAIL: $1 never became healthy"
  return 1
}

say "generating ensemble"
"$BIN/haccgen" -out "$TMP/ens" -runs 2 -halos 100 -particles 200 -steps 99:498:100 -seed 8 >/dev/null

WORK="$TMP/work"
N1=127.0.0.1:18081
N2=127.0.0.1:18082
RT=127.0.0.1:18080

say "starting 2 inferad nodes (shared -work $WORK, per-node -stage-dir)"
"$BIN/inferad" -addr $N1 -work "$WORK" -node-id smoke-n1 -stage-dir "$TMP/stage-n1" \
  -ensemble "seed=$TMP/ens" >"$TMP/n1.log" 2>&1 &
PIDS+=($!)
N1_PID=$!
"$BIN/inferad" -addr $N2 -work "$WORK" -node-id smoke-n2 -stage-dir "$TMP/stage-n2" \
  -ensemble "seed2=$TMP/ens" >"$TMP/n2.log" 2>&1 &
PIDS+=($!)
N2_PID=$!
wait_ready $N1 20
wait_ready $N2 20

say "starting inferaroute over both nodes"
"$BIN/inferaroute" -addr $RT -node "n1=http://$N1" -node "n2=http://$N2" \
  -probe-interval 200ms -v >"$TMP/rt.log" 2>&1 &
PIDS+=($!)
wait_ready $RT 20

ask() { # ensemble seed -> fails the script on a failed/empty answer
  local out
  out=$(curl -fsS "http://$RT/v1/ensembles/$1/ask" \
    -d "{\"question\": \"Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?\", \"seed\": $2}")
  if ! echo "$out" | grep -q '"rows"'; then
    say "FAIL: ask on $1 returned: $out"
    return 1
  fi
}

ask_node() { # addr ensemble seed -> direct node ask, bypassing the router
  local out
  out=$(curl -fsS "http://$1/v1/ensembles/$2/ask" \
    -d "{\"question\": \"Can you find me the top 20 largest friends-of-friends halos from timestep 498 in simulation 0?\", \"seed\": $3}")
  if ! echo "$out" | grep -q '"rows"'; then
    say "FAIL: direct ask on $1/$2 returned: $out"
    return 1
  fi
}

say "staging node 2's ensemble (populates its disk-tier block store)"
ask_node $N2 seed2 50
sleep 0.5 # let the async write-through land before the kill -9 below

say "registering 4 ensembles through the router"
for i in 0 1 2 3; do
  curl -fsS "http://$RT/v1/ensembles" -d "{\"name\": \"smoke-e$i\", \"dir\": \"$TMP/ens\"}" >/dev/null
done

say "asking every ensemble through the router (healthy fleet)"
for i in 0 1 2 3; do ask "smoke-e$i" $((100 + i)); done

HEALTHY=$(curl -fsS "http://$RT/v1/fleet" | grep -o '"healthy_nodes":[0-9]*' | cut -d: -f2)
[ "$HEALTHY" = "2" ] || { say "FAIL: expected 2 healthy nodes, got $HEALTHY"; exit 1; }

say "kill -9 node 2 ($N2_PID) and re-asking everything"
kill -9 "$N2_PID"
# New seeds force recomputation: the asks that owned shards on the corpse
# must fail over to the survivor, re-register from the router catalog, and
# still answer. Zero failures tolerated.
for i in 0 1 2 3; do ask "smoke-e$i" $((200 + i)); done

say "waiting for the prober to eject the corpse"
for _ in $(seq 1 50); do
  HEALTHY=$(curl -fsS "http://$RT/v1/fleet" | grep -o '"healthy_nodes":[0-9]*' | cut -d: -f2)
  [ "$HEALTHY" = "1" ] && break
  sleep 0.1
done
[ "$HEALTHY" = "1" ] || { say "FAIL: corpse never ejected (healthy_nodes=$HEALTHY)"; exit 1; }

say "asking once more post-ejection"
for i in 0 1 2 3; do ask "smoke-e$i" $((300 + i)); done

curl -fsS "http://$RT/v1/metrics/prometheus" | grep -q 'infera_fleet_ejections_total' \
  || { say "FAIL: no ejection recorded in router metrics"; exit 1; }

say "restarting node 2 over its old stage dir (disk-warm revival)"
"$BIN/inferad" -addr $N2 -work "$WORK" -node-id smoke-n2 -stage-dir "$TMP/stage-n2" \
  -ensemble "seed2=$TMP/ens" >"$TMP/n2-revived.log" 2>&1 &
PIDS+=($!)
wait_ready $N2 20
# A fresh seed forces a real staging pass; the kill -9 flushed nothing, so
# any disk hit below came from blocks the first incarnation wrote through.
ask_node $N2 seed2 60
curl -fsS "http://$N2/v1/metrics/prometheus" \
  | grep 'infera_stage_tier_hits_total{tier="disk"}' | grep -qv ' 0$' \
  || { say "FAIL: revived node served zero disk-tier promotions"; exit 1; }

# The corpse sits on a re-probe backoff capped at 15s; two healthy probes
# after its next one readmit it, so 20s covers the worst case.
say "waiting for the router to readmit node 2"
for _ in $(seq 1 200); do
  HEALTHY=$(curl -fsS "http://$RT/v1/fleet" | grep -o '"healthy_nodes":[0-9]*' | cut -d: -f2)
  [ "$HEALTHY" = "2" ] && break
  sleep 0.1
done
[ "$HEALTHY" = "2" ] || { say "FAIL: revived node never readmitted (healthy_nodes=$HEALTHY)"; exit 1; }

say "PASS: node killed mid-run, zero failed asks, corpse ejected, revival disk-warm, node readmitted"
