#!/usr/bin/env bash
# Exercises the always-on service surface: `mosaic daemon` + `mosaic submit`
# over real loopback sockets. Core acceptance: submitting a trace runs the
# pipeline once, resubmitting the same trace is a result-cache hit (the
# cache-hit counter increments and no extra analysis runs), and the cached
# /explain/<trace-id> artifact is byte-identical to `mosaic explain --json`
# on the same file. Also covers bearer auth (401 + challenge header), the
# /results, /report, /metrics and /healthz routes, rejection of garbage
# and NaN-count submissions, watch-directory mode (including content-dedup
# of a copied file), graceful SIGTERM drain that flushes the provenance
# journal and metrics sinks, and flag-validation error cases.
set -euo pipefail
MOSAIC="$1"
WORK="$(mktemp -d)"
DAEMON_PIDS=()
cleanup() {
  for pid in "${DAEMON_PIDS[@]:-}"; do
    kill "$pid" 2> /dev/null || true
  done
  wait 2> /dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

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

# Prints the body of a saved HTTP response (everything past the blank line).
strip_headers() {
  awk 'body { print } /^\r?$/ && !body { body = 1 }' "$1"
}

# Scrapes "<what> on <host>:<port>" lines from a daemon log.
scrape_port() {
  local log="$1" pattern="$2" port=""
  for _ in $(seq 1 100); do
    port="$(sed -n "s/.*$pattern on 127\\.0\\.0\\.1:\\([0-9]*\\).*/\\1/p" \
        "$log")"
    [ -n "$port" ] && break
    sleep 0.1
  done
  if [ -z "$port" ]; then
    echo "daemon never announced '$pattern'; log:" >&2
    cat "$log" >&2
    exit 1
  fi
  echo "$port"
}

"$MOSAIC" generate "$WORK/pop" --traces 6 --seed 9 --format mbt \
    --corruption 0
TRACE_A="$(ls "$WORK/pop"/*.mbt | head -1)"
TRACE_B="$(ls "$WORK/pop"/*.mbt | sed -n 2p)"

# ---- Submission mode: --listen + ephemeral HTTP port, bearer token. ----
TOKEN="daemon-bearer-sekrit"
"$MOSAIC" daemon --listen 127.0.0.1:0 --metrics-port 0 \
    --metrics-token "$TOKEN" --metrics "$WORK/daemon_metrics.json" \
    --provenance "$WORK/prov" > "$WORK/daemon.log" 2>&1 &
DAEMON_PIDS+=("$!")
DPID=$!
MPORT="$(scrape_port "$WORK/daemon.log" 'metrics endpoint listening')"
SPORT="$(scrape_port "$WORK/daemon.log" 'accepting submissions')"

# Bearer auth: anonymous and wrong-token requests bounce with 401 and a
# challenge header; the configured token gets through.
http_get "$MPORT" /results > "$WORK/anon.txt" 2> /dev/null || true
grep -q '401 Unauthorized' "$WORK/anon.txt"
grep -q 'WWW-Authenticate: Bearer' "$WORK/anon.txt"
http_get "$MPORT" /results "wrong-token" > "$WORK/badtok.txt" \
    2> /dev/null || true
grep -q '401 Unauthorized' "$WORK/badtok.txt"

# First submissions: two distinct traces, both analyzed, no cache hits.
"$MOSAIC" submit "$TRACE_A" "$TRACE_B" --daemon "127.0.0.1:$SPORT" \
    > "$WORK/submit1.txt"
[ "$(grep -c ': trace ' "$WORK/submit1.txt")" -eq 2 ]
if grep -q 'cache hit' "$WORK/submit1.txt"; then
  echo "first submissions must not be cache hits" >&2
  exit 1
fi

# Resubmission: the same trace must come back as a cache hit.
"$MOSAIC" submit "$TRACE_A" --daemon "127.0.0.1:$SPORT" \
    > "$WORK/submit2.txt"
grep -q 'cache hit' "$WORK/submit2.txt"

# The counters agree: 3 submissions, 2 analyses, 1 cache hit — and the
# pipeline ran exactly twice (a hit never re-enters the analyzer).
http_get "$MPORT" /metrics "$TOKEN" > "$WORK/metrics.txt" 2> /dev/null || true
grep -q '200 OK' "$WORK/metrics.txt"
grep -q '^mosaic_daemon_submissions_total 3$' "$WORK/metrics.txt"
grep -q '^mosaic_daemon_analyzed_total 2$' "$WORK/metrics.txt"
grep -q '^mosaic_cache_hits_total 1$' "$WORK/metrics.txt"
grep -q '^mosaic_cache_misses_total 2$' "$WORK/metrics.txt"
grep -q '^mosaic_traces_analyzed_total 2$' "$WORK/metrics.txt"
grep -q '^mosaic_cache_entries 2$' "$WORK/metrics.txt"

# /results carries the same story plus the per-trace board.
http_get "$MPORT" /results "$TOKEN" > "$WORK/results.txt" 2> /dev/null || true
grep -q '200 OK' "$WORK/results.txt"
grep -q '"submissions": 3' "$WORK/results.txt"
grep -q '"cache_hits": 1' "$WORK/results.txt"
grep -q '"trace_id"' "$WORK/results.txt"
grep -q '"categories"' "$WORK/results.txt"

# Byte-identity: the cached /explain artifact must match a fresh
# `mosaic explain --json` run over the same file, byte for byte.
TRACE_ID="$(basename "$TRACE_A" .mbt | sed 's/^job_//')"
http_get "$MPORT" "/explain/$TRACE_ID" "$TOKEN" > "$WORK/explain_http.txt" \
    2> /dev/null || true
grep -q '200 OK' "$WORK/explain_http.txt"
strip_headers "$WORK/explain_http.txt" > "$WORK/explain_http.json"
"$MOSAIC" explain "$TRACE_A" --json > "$WORK/explain_cli.json"
diff "$WORK/explain_cli.json" "$WORK/explain_http.json"

# Unknown ids (and evicted artifacts) answer 404 with a hint.
http_get "$MPORT" /explain/999999999 "$TOKEN" > "$WORK/explain404.txt" \
    2> /dev/null || true
grep -q '404 Not Found' "$WORK/explain404.txt"
grep -q 'no cached analysis' "$WORK/explain404.txt"

# /report and /healthz serve over the same endpoint.
http_get "$MPORT" /report "$TOKEN" > "$WORK/report.txt" 2> /dev/null || true
grep -q '200 OK' "$WORK/report.txt"
grep -q '# mosaic daemon report' "$WORK/report.txt"
grep -q 'cache hits: 1' "$WORK/report.txt"
http_get "$MPORT" /healthz "$TOKEN" > "$WORK/healthz.txt" 2> /dev/null || true
grep -Eq 'HTTP/1.1 (200 OK|503 Service Unavailable)' "$WORK/healthz.txt"
grep -Eq '"status": "(ok|warn|fail)"' "$WORK/healthz.txt"

# A garbage submission is rejected per-file (daemon stays up, exit 1).
printf 'not a trace\n' > "$WORK/garbage.mbt"
rc=0
"$MOSAIC" submit "$WORK/garbage.mbt" --daemon "127.0.0.1:$SPORT" \
    > /dev/null 2> "$WORK/reject.txt" || rc=$?
[ "$rc" -eq 1 ]
grep -q 'rejected' "$WORK/reject.txt"

# A darshan-text trace with a NaN count is a parse error, not a float-to-
# integer cast: rejected per file, and the daemon stays up to drain below.
printf '# run time: 10\nPOSIX\t0\t5\tPOSIX_OPENS\tnan\t/f\n' \
    > "$WORK/nan_opens.txt"
rc=0
"$MOSAIC" submit "$WORK/nan_opens.txt" --daemon "127.0.0.1:$SPORT" \
    > /dev/null 2> "$WORK/reject_nan.txt" || rc=$?
[ "$rc" -eq 1 ]
grep -q 'rejected' "$WORK/reject_nan.txt"
grep -q 'line 2: bad numeric field' "$WORK/reject_nan.txt"

# Graceful drain: SIGTERM finishes in-flight work, prints the lifetime
# summary, and flushes the provenance journal and metrics sinks.
kill -TERM "$DPID"
wait "$DPID"
grep -q 'daemon drained: 5 submission(s) (2 analyzed, 1 cache hit(s), 2 ' \
    "$WORK/daemon.log"
grep -q 'metrics written to' "$WORK/daemon.log"
grep -q 'provenance (2 record(s)) written to' "$WORK/daemon.log"
[ -s "$WORK/daemon_metrics.json" ]
[ -s "$WORK/daemon_metrics.json.prom" ]
[ -s "$WORK/prov/provenance.jsonl" ]
grep -q '^mosaic_cache_hits_total 1$' "$WORK/daemon_metrics.json.prom"

# Export the serving artifacts for CI upload when the harness asks.
if [ -n "${MOSAIC_ARTIFACT_DIR:-}" ]; then
  mkdir -p "$MOSAIC_ARTIFACT_DIR"
  strip_headers "$WORK/results.txt" > "$MOSAIC_ARTIFACT_DIR/daemon_results.json"
  cp "$WORK/daemon_metrics.json.prom" \
      "$MOSAIC_ARTIFACT_DIR/daemon_cache_metrics.prom"
fi

# ---- Watch mode: new files are picked up by the poll sweep; a copied ----
# ---- file (same content, new path) dedups through the result cache. ----
mkdir -p "$WORK/incoming"
"$MOSAIC" daemon --watch "$WORK/incoming" --poll-interval 0.2 \
    --metrics-port 0 > "$WORK/watch.log" 2>&1 &
DAEMON_PIDS+=("$!")
WPID=$!
WPORT="$(scrape_port "$WORK/watch.log" 'metrics endpoint listening')"

cp "$TRACE_A" "$WORK/incoming/"
watched=""
for _ in $(seq 1 100); do
  http_get "$WPORT" /results > "$WORK/watch_results.txt" 2> /dev/null || true
  if grep -q '"analyzed": 1' "$WORK/watch_results.txt"; then
    watched=1
    break
  fi
  sleep 0.1
done
if [ -z "$watched" ]; then
  echo "watch sweep never analyzed the dropped trace" >&2
  cat "$WORK/watch_results.txt" "$WORK/watch.log" >&2
  exit 1
fi

# Same bytes under a new name: the sweep ingests it, the cache answers it.
cp "$TRACE_A" "$WORK/incoming/rerun_copy.mbt"
deduped=""
for _ in $(seq 1 100); do
  http_get "$WPORT" /results > "$WORK/watch_results.txt" 2> /dev/null || true
  if grep -q '"cache_hits": 1' "$WORK/watch_results.txt"; then
    deduped=1
    break
  fi
  sleep 0.1
done
if [ -z "$deduped" ]; then
  echo "copied trace never hit the result cache" >&2
  cat "$WORK/watch_results.txt" "$WORK/watch.log" >&2
  exit 1
fi
grep -q '"analyzed": 1' "$WORK/watch_results.txt"

kill -INT "$WPID"
wait "$WPID"
grep -q 'daemon drained:' "$WORK/watch.log"

# ---- Slow copy: a trace trickling into the watch dir across several ----
# ---- sweeps must not be ingested mid-copy. The sweep submits only   ----
# ---- after the file's size+mtime held still for two consecutive     ----
# ---- sweeps, so the funnel sees zero corrupt-prefix rejections and  ----
# ---- exactly one analysis once the copy settles.                    ----
mkdir -p "$WORK/slow_incoming"
"$MOSAIC" daemon --watch "$WORK/slow_incoming" --poll-interval 0.5 \
    --metrics-port 0 > "$WORK/slow.log" 2>&1 &
DAEMON_PIDS+=("$!")
SPID=$!
SLOWPORT="$(scrape_port "$WORK/slow.log" 'metrics endpoint listening')"

# Trickle the trace in ten chunks, appending faster than the sweep period
# so consecutive sweeps always see a moving signature until the copy ends.
SIZE="$(stat -c %s "$TRACE_B")"
CHUNK=$(( SIZE / 10 + 1 ))
SLOW="$WORK/slow_incoming/slow_copy.mbt"
: > "$SLOW"
for i in $(seq 0 9); do
  dd if="$TRACE_B" bs="$CHUNK" skip="$i" count=1 >> "$SLOW" 2> /dev/null \
      || true
  sleep 0.2
done
cmp "$TRACE_B" "$SLOW"

settled=""
for _ in $(seq 1 100); do
  http_get "$SLOWPORT" /results > "$WORK/slow_results.txt" 2> /dev/null || true
  if grep -q '"analyzed": 1' "$WORK/slow_results.txt"; then
    settled=1
    break
  fi
  sleep 0.1
done
if [ -z "$settled" ]; then
  echo "slow-copied trace was never analyzed after settling" >&2
  cat "$WORK/slow_results.txt" "$WORK/slow.log" >&2
  exit 1
fi
# The whole point: no sweep ever fed a half-copied prefix to the funnel.
grep -q '"rejected": 0' "$WORK/slow_results.txt"
grep -q '"submissions": 1' "$WORK/slow_results.txt"

kill -INT "$SPID"
wait "$SPID"
grep -q 'daemon drained:' "$WORK/slow.log"

# ---- Flag validation: actionable errors, not hangs. ----
if "$MOSAIC" daemon > /dev/null 2> "$WORK/err_none.txt"; then
  echo "daemon with no ingress should fail" >&2
  exit 1
fi
grep -q -- '--watch' "$WORK/err_none.txt"
grep -q -- '--listen' "$WORK/err_none.txt"
if "$MOSAIC" daemon --watch "$WORK/incoming" --listen 127.0.0.1:0 \
    > /dev/null 2> "$WORK/err_both.txt"; then
  echo "daemon with both ingresses should fail" >&2
  exit 1
fi
grep -q 'mutually exclusive' "$WORK/err_both.txt"
if "$MOSAIC" daemon --watch "$WORK/does-not-exist" > /dev/null 2>&1; then
  echo "daemon --watch on a missing directory should fail" >&2
  exit 1
fi
if "$MOSAIC" daemon --listen not-an-address > /dev/null 2>&1; then
  echo "daemon --listen not-an-address should fail" >&2
  exit 1
fi
if "$MOSAIC" daemon --watch "$WORK/incoming" --poll-interval 0 \
    > /dev/null 2>&1; then
  echo "daemon --poll-interval 0 should fail" >&2
  exit 1
fi
if "$MOSAIC" daemon --watch "$WORK/incoming" --cache-bytes -1 \
    > /dev/null 2>&1; then
  echo "daemon --cache-bytes -1 should fail" >&2
  exit 1
fi
if "$MOSAIC" submit "$TRACE_A" > /dev/null 2> "$WORK/err_nodaemon.txt"; then
  echo "submit without --daemon should fail" >&2
  exit 1
fi
grep -q -- '--daemon' "$WORK/err_nodaemon.txt"
if "$MOSAIC" submit --daemon 127.0.0.1:1 > /dev/null 2>&1; then
  echo "submit without files should fail" >&2
  exit 1
fi
if "$MOSAIC" submit "$WORK/does-not-exist.mbt" --daemon "127.0.0.1:1" \
    > /dev/null 2>&1; then
  echo "submit of a missing file should fail" >&2
  exit 1
fi

echo "cli daemon ok"
