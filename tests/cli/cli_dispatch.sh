#!/usr/bin/env bash
# Exercises the fault-tolerant distributed CLI surface: `mosaic worker` +
# `mosaic dispatch` over real loopback sockets. A worker killed mid-run by a
# seeded network fault must be detected, its shards reassigned, and the merged
# JSON must stay byte-identical to the single-shot run; same for full
# degradation (every worker lost) and for a manager crash resumed from the
# partials it had written. A fleet-observability pass scrapes the manager's live
# /metrics + /status endpoint mid-run, then checks the merged fleet metrics
# (bare counter totals == sum of worker-labeled series) and the multi-lane
# Chrome trace. The observability pass also runs with --metrics-token (401
# without the bearer token, 200 with). A second endpoint pass kills a
# worker mid-run and polls /healthz until it reports fail(worker-staleness)
# with a 503. Ends with flag-validation error cases.
set -euo pipefail
MOSAIC="$1"
WORK="$(mktemp -d)"
WORKER_PIDS=()
cleanup() {
  for pid in "${WORKER_PIDS[@]:-}"; do
    kill "$pid" 2> /dev/null || true
  done
  wait 2> /dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# Starts a worker on an ephemeral port and sets WORKER_PORT to the scraped
# port number. Runs in the calling shell, not in $(...), so the PID it
# records in WORKER_PIDS reaches the cleanup trap.
# Usage: start_worker <logfile> [extra worker flags...]
start_worker() {
  local log="$1"
  shift
  : > "$log"  # exists before the first scrape, however late the fork runs
  "$MOSAIC" worker --listen 127.0.0.1:0 "$@" > "$log" 2>&1 &
  WORKER_PIDS+=("$!")
  WORKER_PORT=""
  for _ in $(seq 1 100); do
    WORKER_PORT="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log")"
    [ -n "$WORKER_PORT" ] && break
    sleep 0.1
  done
  if [ -z "$WORKER_PORT" ]; then
    echo "worker failed to start; log:" >&2
    cat "$log" >&2
    exit 1
  fi
}

"$MOSAIC" generate "$WORK/pop" --traces 50 --seed 9 --format mixed \
    --corruption 0.25
"$MOSAIC" batch "$WORK/pop" --json "$WORK/single.json" \
    --provenance "$WORK/prov_single" > /dev/null

# Happy path: two healthy workers, four shards, byte-identical merge.
start_worker "$WORK/w1.log"
P1="$WORKER_PORT"
start_worker "$WORK/w2.log"
P2="$WORKER_PORT"
"$MOSAIC" dispatch "$WORK/pop" --workers "127.0.0.1:$P1,127.0.0.1:$P2" \
    --shards 4 --partials "$WORK/parts" --json "$WORK/dist.json" \
    > "$WORK/dispatch.txt"
diff "$WORK/single.json" "$WORK/dist.json"
grep -q 'shard 0: done' "$WORK/dispatch.txt"
grep -q 'funnel:' "$WORK/dispatch.txt"

# Fleet observability: one worker stalls 2.5s per task so the run stays in
# flight long enough to scrape the live endpoint. Telemetry federation must
# not perturb the merged output: still byte-identical to single-shot.
start_worker "$WORK/ws1.log" \
    --net-fault-inject 'seed=7,stall=1.0,stall_ms=2500'
WS1="$WORKER_PORT"
start_worker "$WORK/ws2.log"
WS2="$WORKER_PORT"
TOKEN="test-bearer-sekrit"
: > "$WORK/obs.txt"
"$MOSAIC" dispatch "$WORK/pop" --workers "127.0.0.1:$WS1,127.0.0.1:$WS2" \
    --shards 4 --partials "$WORK/parts_obs" --json "$WORK/obs.json" \
    --metrics "$WORK/fleet.json" --trace-events "$WORK/fleet_trace.json" \
    --metrics-port 0 --progress 0.2 --heartbeat-grace 10 \
    --metrics-token "$TOKEN" \
    > "$WORK/obs.txt" 2> "$WORK/obs.err" &
DISPATCH_PID=$!

mport=""
for _ in $(seq 1 100); do
  mport="$(sed -n \
      's/.*metrics endpoint listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "$WORK/obs.txt")"
  [ -n "$mport" ] && break
  sleep 0.05
done
if [ -z "$mport" ]; then
  echo "dispatch never announced its metrics endpoint" >&2
  cat "$WORK/obs.txt" "$WORK/obs.err" >&2
  exit 1
fi

# Raw-bash HTTP GET (no curl dependency in the test image). An optional
# third argument sends `Authorization: Bearer <token>`.
http_get() {
  local port="$1" path="$2" token="${3:-}"
  local auth=""
  [ -n "$token" ] && auth="Authorization: Bearer $token"$'\r\n'
  exec 3<>"/dev/tcp/127.0.0.1/$port" || return 1
  printf 'GET %s HTTP/1.1\r\nHost: localhost\r\n%s\r\n' "$path" "$auth" >&3
  cat <&3
  exec 3>&- 2> /dev/null || true
}

# Bearer auth: anonymous and wrong-token requests bounce with 401 and a
# challenge header; the configured token gets through.
http_get "$mport" /metrics > "$WORK/anon.txt" 2> /dev/null || true
grep -q '401 Unauthorized' "$WORK/anon.txt"
grep -q 'WWW-Authenticate: Bearer' "$WORK/anon.txt"
http_get "$mport" /metrics "wrong-token" > "$WORK/badtok.txt" \
    2> /dev/null || true
grep -q '401 Unauthorized' "$WORK/badtok.txt"

# Poll the live endpoint until worker-labeled series show up (the healthy
# worker ships telemetry within its first heartbeat/partial, well inside the
# 2.5s the stalled worker is holding the run open).
live_ok=""
for _ in $(seq 1 120); do
  http_get "$mport" /metrics "$TOKEN" > "$WORK/live_metrics.txt" \
      2> /dev/null || true
  if grep -q '200 OK' "$WORK/live_metrics.txt" \
      && grep -q '^mosaic_dispatch_tasks_done_total ' \
          "$WORK/live_metrics.txt" \
      && grep -q 'worker="127.0.0.1:' "$WORK/live_metrics.txt"; then
    live_ok=1
    break
  fi
  sleep 0.05
done
if [ -z "$live_ok" ]; then
  echo "live /metrics never served worker-labeled fleet series" >&2
  cat "$WORK/live_metrics.txt" >&2
  exit 1
fi
http_get "$mport" /status "$TOKEN" > "$WORK/live_status.txt" \
    2> /dev/null || true
grep -q '200 OK' "$WORK/live_status.txt"
grep -q '"shards_total": 4' "$WORK/live_status.txt"
grep -q '"worker":' "$WORK/live_status.txt"

# /healthz serves a structured verdict over the authed endpoint. The level
# itself is corpus-dependent mid-run (the seeded corrupt files can push a
# worker's own eviction-ratio to warn or even fail on a small shard), so
# assert the contract — a 200-or-503 with a verdict body — and leave the
# deterministic fail transition to the worker-kill pass below.
http_get "$mport" /healthz "$TOKEN" > "$WORK/live_healthz.txt" \
    2> /dev/null || true
grep -Eq 'HTTP/1.1 (200 OK|503 Service Unavailable)' "$WORK/live_healthz.txt"
grep -Eq '"status": "(ok|warn|fail)"' "$WORK/live_healthz.txt"
grep -q '"summary"' "$WORK/live_healthz.txt"
grep -q '"workers"' "$WORK/live_healthz.txt"

wait "$DISPATCH_PID"
diff "$WORK/single.json" "$WORK/obs.json"
grep -q 'dispatch progress: shards' "$WORK/obs.err"
grep -q 'fleet metrics written to' "$WORK/obs.txt"
grep -q 'fleet trace events written to' "$WORK/obs.txt"

# Merged-fleet invariant: every bare counter total must equal the sum of its
# worker-labeled series (the manager's own lane included). Histogram and
# gauge lines are excluded by the _total suffix / integer-value filters.
awk '
  $2 ~ /^[0-9]+$/ && $1 ~ /^[a-z0-9_]+_total$/ {
    bare[$1] = $2 + 0
    order[n++] = $1
  }
  $2 ~ /^[0-9]+$/ && $1 ~ /^[a-z0-9_]+_total\{worker="[^"]+"\}$/ {
    split($1, parts, "{")
    sum[parts[1]] += $2 + 0
  }
  END {
    if (n < 3) { print "too few bare counter totals (" n ")"; exit 1 }
    for (i = 0; i < n; i++) {
      name = order[i]
      if (bare[name] != sum[name] + 0) {
        print "fleet total mismatch for " name ": bare " bare[name] \
              " != worker sum " sum[name]
        exit 1
      }
    }
    print "fleet totals verified for " n " counter(s)"
  }
' "$WORK/fleet.json.prom"

# The merged Chrome trace must carry one named process lane per fleet member
# (manager + both workers) and real span events.
python3 - "$WORK/fleet_trace.json" <<'PY'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
lanes = {e["pid"]: e["args"]["name"] for e in events
         if e.get("ph") == "M" and e.get("name") == "process_name"}
assert len(lanes) >= 3, f"expected >=3 process lanes, got {lanes}"
names = sorted(lanes.values())
assert "manager" in names, names
workers = [n for n in names if n.startswith("worker 127.0.0.1:")]
assert len(workers) >= 2, f"expected 2 worker lanes, got {names}"
spans = [e for e in events if e.get("ph") == "X"]
assert spans, "merged trace has no span events"
worker_pids = {pid for pid, name in lanes.items() if name != "manager"}
assert any(e["pid"] in worker_pids for e in spans), \
    "no spans landed in any worker lane"
assert all(e["ts"] >= 0 and e["dur"] >= 0 for e in spans)
print(f"fleet trace ok: {len(lanes)} lanes, {len(spans)} spans")
PY

# Export the fleet artifacts for CI upload when the harness asks for them.
if [ -n "${MOSAIC_ARTIFACT_DIR:-}" ]; then
  mkdir -p "$MOSAIC_ARTIFACT_DIR"
  cp "$WORK/fleet.json" "$MOSAIC_ARTIFACT_DIR/fleet_metrics.json"
  cp "$WORK/fleet.json.prom" "$MOSAIC_ARTIFACT_DIR/fleet_metrics.prom"
  cp "$WORK/fleet_trace.json" "$MOSAIC_ARTIFACT_DIR/fleet_trace.json"
  cp "$WORK/live_healthz.txt" "$MOSAIC_ARTIFACT_DIR/healthz_ok.txt"
fi

# /healthz failure detection: one worker dies after its first task while a
# stalled survivor keeps the run alive; the endpoint must flip to 503
# fail(worker-staleness) within a heartbeat-grace of the kill, and the
# progress board must name the stale worker. The survivor's stall (1.5s,
# silent — no heartbeats while stalled) must stay under the grace (3s) or
# the manager would orphan it on every attempt and the run would never
# converge. No --metrics file here: stale runs tag worker series with
# stale="true", which is exactly what the bare-total-vs-worker-sum
# invariant above must never see.
start_worker "$WORK/wk.log" --net-fault-inject 'seed=7,kill_after=1'
WK="$WORKER_PORT"
start_worker "$WORK/wsurv.log" \
    --net-fault-inject 'seed=11,stall=1.0,stall_ms=1500'
WSURV="$WORKER_PORT"
: > "$WORK/hz.txt"
"$MOSAIC" dispatch "$WORK/pop" --workers "127.0.0.1:$WK,127.0.0.1:$WSURV" \
    --shards 4 --partials "$WORK/parts_hz" --json "$WORK/hz.json" \
    --metrics-port 0 --progress 0.2 --heartbeat-grace 3 \
    --connect-timeout 1 --reconnect-attempts 1 \
    > "$WORK/hz.txt" 2> "$WORK/hz.err" &
HZ_PID=$!

hzport=""
for _ in $(seq 1 100); do
  hzport="$(sed -n \
      's/.*metrics endpoint listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' \
      "$WORK/hz.txt")"
  [ -n "$hzport" ] && break
  sleep 0.05
done
[ -n "$hzport" ]

hz_failed=""
for _ in $(seq 1 400); do
  http_get "$hzport" /healthz > "$WORK/healthz_fail.txt" 2> /dev/null || true
  if grep -q '503 Service Unavailable' "$WORK/healthz_fail.txt" \
      && grep -q '"status": "fail"' "$WORK/healthz_fail.txt" \
      && grep -q 'worker-staleness' "$WORK/healthz_fail.txt"; then
    hz_failed=1
    break
  fi
  sleep 0.05
done
if [ -z "$hz_failed" ]; then
  echo "/healthz never reported the killed worker" >&2
  cat "$WORK/healthz_fail.txt" "$WORK/hz.txt" "$WORK/hz.err" >&2
  exit 1
fi

wait "$HZ_PID"
diff "$WORK/single.json" "$WORK/hz.json"
grep -q 'health: fail(worker-staleness' "$WORK/hz.err"
grep -q 'STALE' "$WORK/hz.err"

if [ -n "${MOSAIC_ARTIFACT_DIR:-}" ]; then
  cp "$WORK/healthz_fail.txt" "$MOSAIC_ARTIFACT_DIR/healthz_fail.txt"
fi

# Kill one worker mid-run via a seeded fault (dies for good after one task):
# its remaining shards must be reassigned to the survivor, byte-identically.
start_worker "$WORK/w3.log" --net-fault-inject 'seed=7,kill_after=1'
P3="$WORKER_PORT"
start_worker "$WORK/w4.log"
P4="$WORKER_PORT"
"$MOSAIC" dispatch "$WORK/pop" --workers "127.0.0.1:$P3,127.0.0.1:$P4" \
    --shards 4 --partials "$WORK/parts_kill" --json "$WORK/kill.json" \
    --provenance "$WORK/prov_kill" \
    --connect-timeout 1 --reconnect-attempts 1 > "$WORK/kill.txt"
diff "$WORK/single.json" "$WORK/kill.json"
# Workers ship digests; the manager analyzes each winner once, so its
# provenance is the single-shot file.
diff "$WORK/prov_single/provenance.jsonl" "$WORK/prov_kill/provenance.jsonl"
grep -q '1 worker(s) lost' "$WORK/kill.txt"
grep -Eq '[1-9][0-9]* reassigned' "$WORK/kill.txt"

# Graceful degradation: the only worker dies after one task, so the manager
# must finish the remaining shards in-process — still byte-identical.
start_worker "$WORK/w5.log" --net-fault-inject 'seed=7,kill_after=1'
P5="$WORKER_PORT"
"$MOSAIC" dispatch "$WORK/pop" --workers "127.0.0.1:$P5" \
    --shards 3 --partials "$WORK/parts_deg" --json "$WORK/degraded.json" \
    --provenance "$WORK/prov_deg" \
    --connect-timeout 1 --reconnect-attempts 1 > "$WORK/degraded.txt"
diff "$WORK/single.json" "$WORK/degraded.json"
diff "$WORK/prov_single/provenance.jsonl" "$WORK/prov_deg/provenance.jsonl"
grep -Eq '[1-9][0-9]* run degraded' "$WORK/degraded.txt"

# Manager crash + resume: abort after one written partial (exit 3, no
# merge), then --resume must keep that partial and only run the remainder,
# producing a byte-identical merge.
start_worker "$WORK/w6.log"
P6="$WORKER_PORT"
rc=0
"$MOSAIC" dispatch "$WORK/pop" --workers "127.0.0.1:$P6" \
    --shards 3 --partials "$WORK/parts_resume" --json "$WORK/resumed.json" \
    --abort-after-partials 1 > "$WORK/abort.txt" || rc=$?
[ "$rc" -eq 3 ]
[ "$(ls "$WORK/parts_resume" | wc -l)" -eq 1 ]
[ ! -e "$WORK/resumed.json" ]
"$MOSAIC" dispatch "$WORK/pop" --workers "127.0.0.1:$P6" \
    --shards 3 --partials "$WORK/parts_resume" --json "$WORK/resumed.json" \
    --provenance "$WORK/prov_resume" --resume > "$WORK/resume.txt"
diff "$WORK/single.json" "$WORK/resumed.json"
diff "$WORK/prov_single/provenance.jsonl" \
    "$WORK/prov_resume/provenance.jsonl"
grep -q ' 1 resumed from partials' "$WORK/resume.txt"

# Flag validation: malformed addresses and non-numeric/absurd durations must
# fail up front with usage errors, not hang or connect.
for bad_workers in "127.0.0.1" "host:" ":9100" "host:99999" ""; do
  if "$MOSAIC" dispatch "$WORK/pop" --workers "$bad_workers" \
      --partials "$WORK/p" > /dev/null 2>&1; then
    echo "--workers '$bad_workers' should fail" >&2
    exit 1
  fi
done
if "$MOSAIC" dispatch "$WORK/pop" --workers 127.0.0.1:9 \
    --partials "$WORK/p" --task-deadline banana > /dev/null 2>&1; then
  echo "--task-deadline banana should fail" >&2
  exit 1
fi
if "$MOSAIC" dispatch "$WORK/pop" --workers 127.0.0.1:9 \
    --partials "$WORK/p" --heartbeat-grace -1 > /dev/null 2>&1; then
  echo "--heartbeat-grace -1 should fail" >&2
  exit 1
fi
if "$MOSAIC" dispatch "$WORK/pop" --workers 127.0.0.1:9 \
    --partials "$WORK/p" --journal "$WORK/j.jsonl" > /dev/null 2>&1; then
  echo "dispatch --journal should be an unknown option" >&2
  exit 1
fi
if "$MOSAIC" dispatch "$WORK/pop" --workers 127.0.0.1:9 \
    --partials "$WORK/p" --max-attempts 0 > /dev/null 2>&1; then
  echo "--max-attempts 0 should fail" >&2
  exit 1
fi
if "$MOSAIC" worker --listen not-an-address > /dev/null 2>&1; then
  echo "worker --listen not-an-address should fail" >&2
  exit 1
fi
if "$MOSAIC" worker --listen 127.0.0.1:0 --heartbeat-interval 0 \
    > /dev/null 2>&1; then
  echo "worker --heartbeat-interval 0 should fail" >&2
  exit 1
fi

# Post-mortem health: `mosaic health` re-evaluates the fleet rules against
# the saved metrics artifact from the observability pass.
"$MOSAIC" health --fleet "$WORK/fleet.json" > "$WORK/health.txt"
grep -q 'health: ok' "$WORK/health.txt"
grep -q 'worker-staleness' "$WORK/health.txt"
"$MOSAIC" health --fleet --print-rules > "$WORK/rules.json"
grep -q '"rules"' "$WORK/rules.json"
if "$MOSAIC" health "$WORK/does-not-exist.json" > /dev/null 2>&1; then
  echo "health on a missing metrics file should fail" >&2
  exit 1
fi

# Stop every worker this script started, then check that none outlives it:
# a worker whose PID escaped WORKER_PIDS would still hold its log file in
# $WORK open.
for pid in "${WORKER_PIDS[@]}"; do kill "$pid" 2> /dev/null || true; done
for pid in "${WORKER_PIDS[@]}"; do wait "$pid" 2> /dev/null || true; done
leaked="$(find /proc/[0-9]*/fd -lname "$WORK/*" 2> /dev/null || true)"
if [ -n "$leaked" ]; then
  echo "worker processes outlived the script:" >&2
  echo "$leaked" >&2
  exit 1
fi

echo "cli dispatch ok"
