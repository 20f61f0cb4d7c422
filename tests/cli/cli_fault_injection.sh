#!/usr/bin/env bash
# Exercises the fault-tolerant ingest CLI surface: --fault-inject retry
# recovery, --quarantine, --shards N --resume after a kill (the resumed run
# must write the uninterrupted run's JSON summary, provenance and funnel
# counters), and --threads validation.
set -euo pipefail
MOSAIC="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$MOSAIC" generate "$WORK/pop" --traces 40 --seed 11 --format mixed \
    --corruption 0.25 --truth "$WORK/truth.jsonl"

# Transient EIO on every file: with retries available everything recovers and
# the funnel matches a fault-free run.
"$MOSAIC" batch "$WORK/pop" --json "$WORK/clean.json" > "$WORK/clean.txt"
"$MOSAIC" batch "$WORK/pop" --json "$WORK/faulty.json" \
    --fault-inject 'seed=3,eio=1.0,eio_failures=1' --retries 3 \
    > "$WORK/faulty.txt"
diff "$WORK/clean.json" "$WORK/faulty.json"
grep -q 'funnel:' "$WORK/faulty.txt"

# Retries exhausted: everything is evicted as io-error and the eviction table
# says so.
"$MOSAIC" batch "$WORK/pop" \
    --fault-inject 'seed=3,eio=1.0,eio_failures=99' --retries 1 \
    > "$WORK/exhausted.txt" || true
grep -q 'io-error' "$WORK/exhausted.txt"

# Quarantine: corrupt traces are moved aside; a rerun over the directory sees
# only healthy files.
cp -r "$WORK/pop" "$WORK/pop_q"
"$MOSAIC" batch "$WORK/pop_q" --quarantine "$WORK/bad" > "$WORK/quarantine.txt"
grep -q 'corrupt-trace' "$WORK/quarantine.txt"
[ "$(ls "$WORK/bad" | wc -l)" -gt 0 ]
"$MOSAIC" batch "$WORK/pop_q" > "$WORK/requarantine.txt"
if grep -q 'corrupt-trace' "$WORK/requarantine.txt"; then
  echo "quarantined files should not be rescanned" >&2
  exit 1
fi

# Crash-and-resume: a --shards 4 run under injected faults finishes, then
# one partial is deleted and another torn in half (a kill leaves whole
# partials or none: each is renamed into place). --resume keeps the other
# two, and the JSON summary, provenance and funnel counters are the
# single-shot run's.
faults='seed=17,eio=0.3,eio_failures=1,flip=0.1,short=0.1,delay=0.1,delay_ms=2'
"$MOSAIC" batch "$WORK/pop" --fault-inject "$faults" --retries 2 \
    --json "$WORK/reference.json" --provenance "$WORK/prov_reference" \
    --metrics "$WORK/reference.metrics.json" > /dev/null
"$MOSAIC" batch "$WORK/pop" --fault-inject "$faults" --retries 2 \
    --shards 4 --partials "$WORK/parts_resume" > /dev/null
rm "$WORK/parts_resume/results.shard-1.json"
torn="$WORK/parts_resume/results.shard-2.json"
head -c "$(( $(wc -c < "$torn") / 2 ))" "$torn" > "$WORK/torn.json"
mv "$WORK/torn.json" "$torn"
"$MOSAIC" batch "$WORK/pop" --fault-inject "$faults" --retries 2 \
    --shards 4 --partials "$WORK/parts_resume" --resume \
    --json "$WORK/resumed.json" --provenance "$WORK/prov_resumed" \
    --metrics "$WORK/resumed.metrics.json" > "$WORK/resume.txt" \
    2> "$WORK/resume.err"
[ "$(grep -c 'from an earlier run' "$WORK/resume.txt")" -eq 2 ]
grep -q 'shard 1/4: ingested' "$WORK/resume.txt"
grep -q 'results.shard-2.json is not shard 2 of 4' "$WORK/resume.err"
cmp "$WORK/reference.json" "$WORK/resumed.json"
cmp "$WORK/prov_reference/provenance.jsonl" \
    "$WORK/prov_resumed/provenance.jsonl"
python3 - "$WORK/reference.metrics.json" "$WORK/resumed.metrics.json" <<'PY'
import json, sys
def funnel(path):
    return json.dumps(
        {name: value for name, value in json.load(open(path))["counters"].items()
         if name.startswith("mosaic_funnel_")},
        sort_keys=True)
single, resumed = funnel(sys.argv[1]), funnel(sys.argv[2])
assert "mosaic_funnel_valid_total" in single, single
assert single == resumed, (single, resumed)
print("resumed funnel counters match single-shot")
PY

# Same bytes at 1 and 8 threads: with delayed files finishing out of path
# order, the per-worker folds combine into the same JSON summary and
# mosaic_funnel_*/mosaic_ingest_* counters.
for t in 1 8; do
  "$MOSAIC" batch "$WORK/pop" --threads "$t" --json "$WORK/threads$t.json" \
      --fault-inject 'seed=9,delay=0.15,delay_ms=3,eio=0.2,eio_failures=1' \
      --retries 2 --metrics "$WORK/threads$t.metrics.json" > /dev/null
done
cmp "$WORK/threads1.json" "$WORK/threads8.json"
python3 - "$WORK/threads1.metrics.json" "$WORK/threads8.metrics.json" <<'PY'
import json, sys
def counters(path):
    return json.dumps(
        {name: value for name, value in json.load(open(path))["counters"].items()
         if name.startswith(("mosaic_funnel_", "mosaic_ingest_"))},
        sort_keys=True)
one, eight = counters(sys.argv[1]), counters(sys.argv[2])
assert "mosaic_ingest_retry_attempts_total" in one, one
assert one == eight, (one, eight)
print("same bytes at 1 and 8 threads")
PY

# Ingest workers claim runs of 16 sorted paths and checksum .mbt files in
# groups of four. With .mbt and darshan-text traces interleaved in sorted
# order, and bit flips, torn reads and transient EIO injected, the JSON
# summary is the same bytes at 1, 2 and 8 threads.
"$MOSAIC" generate "$WORK/interleaved" --traces 120 --seed 13 --format mixed \
    --corruption 0.2 > /dev/null
first_run=$(LC_ALL=C ls "$WORK/interleaved" | head -16)
grep -q '\.mbt$' <<< "$first_run"
grep -q '\.txt$' <<< "$first_run"
for t in 1 2 8; do
  "$MOSAIC" batch "$WORK/interleaved" --threads "$t" \
      --fault-inject 'seed=21,flip=0.15,short=0.15,eio=0.2,eio_failures=1' \
      --retries 2 --json "$WORK/interleaved$t.json" > /dev/null
done
for t in 2 8; do
  cmp "$WORK/interleaved1.json" "$WORK/interleaved$t.json"
done
grep -q '"corrupt-trace"' "$WORK/interleaved1.json"

# Observability surface: a faulty run with --metrics/--trace-events/--progress
# must dump metrics (JSON + Prometheus) whose per-ErrorCode eviction counters
# exactly match the run's funnel summary, a Perfetto-loadable trace with
# per-thread stage spans, at least one heartbeat line plus the completion
# summary, and a provenance journal with one record per analyzed trace.
"$MOSAIC" batch "$WORK/pop" --json "$WORK/obs.json" \
    --fault-inject 'seed=5,eio=0.5,eio_failures=99' --retries 0 \
    --metrics "$WORK/metrics.json" --trace-events "$WORK/trace.json" \
    --provenance "$WORK/prov" \
    --progress 1 --log-json > "$WORK/obs.txt" 2> "$WORK/obs.err" || true
[ -s "$WORK/metrics.json" ]
[ -s "$WORK/metrics.json.prom" ]
[ -s "$WORK/trace.json" ]
[ -s "$WORK/prov/provenance.jsonl" ]
grep -q '# TYPE mosaic_funnel_evictions_total counter' "$WORK/metrics.json.prom"
grep -q '"msg":"progress:' "$WORK/obs.err"
grep -q '"msg":"progress: run complete:' "$WORK/obs.err"
python3 - "$WORK/metrics.json" "$WORK/obs.json" "$WORK/trace.json" <<'PY'
import json, sys
metrics = json.load(open(sys.argv[1]))
batch = json.load(open(sys.argv[2]))
trace = json.load(open(sys.argv[3]))

# Funnel counters must agree exactly with the batch summary's breakdown.
counters = metrics["counters"]
breakdown = batch["preprocessing"]["eviction_breakdown"]
assert breakdown, "expected evictions in this faulty run"
metric_evictions = {
    name.split('code="')[1].rstrip('"}'): value
    for name, value in counters.items()
    if name.startswith("mosaic_funnel_evictions_total{")
}
assert metric_evictions == breakdown, (metric_evictions, breakdown)
corruption = batch["preprocessing"]["corruption_breakdown"]
metric_corruption = {
    name.split('kind="')[1].rstrip('"}'): value
    for name, value in counters.items()
    if name.startswith("mosaic_funnel_corruption_total{")
}
assert metric_corruption == corruption, (metric_corruption, corruption)
assert counters["mosaic_funnel_valid_total"] == batch["preprocessing"]["valid"]

# Trace: per-thread metadata plus complete events for every pipeline stage.
events = trace["traceEvents"]
phases = {e["ph"] for e in events}
assert phases <= {"M", "X"}, phases
names = {e["name"] for e in events if e["ph"] == "X"}
for stage in ("load", "merge", "segment", "periodicity", "temporality",
              "metadata", "categorize", "analyze", "ingest"):
    assert stage in names, f"missing span {stage}: {sorted(names)}"
tids = {e.get("tid") for e in events if e["ph"] == "X"}
thread_names = {e["args"]["name"] for e in events
                if e["ph"] == "M" and e["name"] == "thread_name"}
assert len(thread_names) == len(tids) > 0, (thread_names, tids)
for e in events:
    if e["ph"] == "X":
        assert e["dur"] >= 0 and e["ts"] >= 0
print("obs acceptance ok")
PY

# Provenance journal: one well-formed record per analyzed trace, in exact
# agreement with the journal's own counter in the metrics dump.
python3 - "$WORK/prov/provenance.jsonl" "$WORK/metrics.json" <<'PY'
import json, sys
records = [json.loads(line) for line in open(sys.argv[1]) if line.strip()]
metrics = json.load(open(sys.argv[2]))
assert records, "expected provenance records from the sampled batch run"
assert metrics["counters"]["mosaic_provenance_records_total"] == len(records)
for r in records:
    for key in ("app_key", "job_id", "read", "write", "metadata", "rules",
                "categories"):
        assert key in r, (key, sorted(r))
    assert r["rules"], f"no rule firings recorded for {r['app_key']}"
    assert r["categories"], f"no categories recorded for {r['app_key']}"
print("provenance acceptance ok")
PY

# When MOSAIC_ARTIFACT_DIR is set (CI sets it), keep the telemetry files so
# the workflow can upload them before the trap removes the workdir.
if [ -n "${MOSAIC_ARTIFACT_DIR:-}" ]; then
  mkdir -p "$MOSAIC_ARTIFACT_DIR"
  cp "$WORK/metrics.json" "$WORK/metrics.json.prom" "$WORK/trace.json" \
     "$WORK/prov/provenance.jsonl" "$MOSAIC_ARTIFACT_DIR/"
fi

# Sharded execution golden: independent --shard K/N runs merged with
# `mosaic merge` — and the in-process --shards N driver — must both
# reproduce the single-shot JSON summary byte for byte, including under
# fault injection (the shard filter runs before retry/eviction counting).
# Shards only fold; the reduce re-reads and analyzes each winner once, so
# its provenance is the single-shot file too.
for k in 0 1; do
  "$MOSAIC" batch "$WORK/pop" --shard "$k/2" --partials "$WORK/parts2" \
      --fault-inject 'seed=3,eio=1.0,eio_failures=1' --retries 3 \
      --metrics "$WORK/shard.json" > "$WORK/shard$k.txt"
  grep -q "shard $k/2: ingested" "$WORK/shard$k.txt"
done
[ -s "$WORK/parts2/results.shard-0.json" ]
[ -s "$WORK/parts2/results.shard-1.json" ]
[ -s "$WORK/shard.shard-0.json" ]  # per-shard metrics, not a shared file
"$MOSAIC" merge "$WORK/parts2" --json "$WORK/sharded.json" \
    > "$WORK/merge.txt"
diff "$WORK/clean.json" "$WORK/sharded.json"
grep -q 'merged 2 partial' "$WORK/merge.txt"
"$MOSAIC" batch "$WORK/pop" --provenance "$WORK/prov_single" > /dev/null
for n in 1 2 3 8 16; do
  "$MOSAIC" batch "$WORK/pop" --shards "$n" --partials "$WORK/parts_n$n" \
      --json "$WORK/inprocess$n.json" --provenance "$WORK/prov_n$n" \
      > /dev/null
  diff "$WORK/clean.json" "$WORK/inprocess$n.json"
  diff "$WORK/prov_single/provenance.jsonl" "$WORK/prov_n$n/provenance.jsonl"
done

# `mosaic merge` takes the analysis settings: with the same --thresholds
# file it prints what a single-shot batch prints.
"$MOSAIC" thresholds > "$WORK/thresholds.json"
python3 - "$WORK/thresholds.json" <<'PY'
import json, sys
config = json.load(open(sys.argv[1]))
config["min_bytes"] = 1e18
json.dump(config, open(sys.argv[1], "w"))
PY
"$MOSAIC" batch "$WORK/pop" --thresholds "$WORK/thresholds.json" \
    --json "$WORK/strict.json" > /dev/null
"$MOSAIC" merge "$WORK/parts2" --thresholds "$WORK/thresholds.json" \
    --json "$WORK/strict_merged.json" > /dev/null
diff "$WORK/strict.json" "$WORK/strict_merged.json"
if diff -q "$WORK/clean.json" "$WORK/strict.json" > /dev/null; then
  echo "--thresholds should change the summary" >&2
  exit 1
fi

# The markdown report reduced from partials must match the ingest-path
# report, the accuracy drill-down included: the reduce analyzes, so
# --confusion arms the journal on both paths.
"$MOSAIC" report "$WORK/pop" --out "$WORK/single.md" \
    --confusion --truth "$WORK/truth.jsonl" > /dev/null
"$MOSAIC" report --from-partials "$WORK/parts2" --out "$WORK/merged.md" \
    --confusion --truth "$WORK/truth.jsonl" > /dev/null
grep -q 'Accuracy drill-down' "$WORK/merged.md"
diff "$WORK/single.md" "$WORK/merged.md"

# Partition validation: merging an incomplete partition must fail loudly.
mkdir -p "$WORK/partial_only"
cp "$WORK/parts2/results.shard-0.json" "$WORK/partial_only/"
if "$MOSAIC" merge "$WORK/partial_only" > /dev/null 2>&1; then
  echo "merging an incomplete partition should fail" >&2
  exit 1
fi

# The reduce re-reads each winner at its shard's path: with the population
# moved away, merge and report --from-partials fail (exit 1) naming a
# missing winner instead of summarizing zero applications.
mv "$WORK/pop" "$WORK/pop_moved"
for cmd in "merge $WORK/parts2" "report --from-partials $WORK/parts2"; do
  rc=0
  # shellcheck disable=SC2086  # $cmd is a subcommand plus its arguments
  "$MOSAIC" $cmd > /dev/null 2> "$WORK/moved.err" || rc=$?
  if [ "$rc" -ne 1 ]; then
    echo "'mosaic $cmd' over a moved population exited $rc, not 1" >&2
    exit 1
  fi
  grep -q "$WORK/pop/.* does not exist, nor does any of the" "$WORK/moved.err"
done
mv "$WORK/pop_moved" "$WORK/pop"

# Shard CLI validation: malformed specs and missing --partials are usage
# errors.
if "$MOSAIC" batch "$WORK/pop" --shard 2/2 --partials "$WORK/p" \
    > /dev/null 2>&1; then
  echo "--shard K/N with K >= N should fail" >&2
  exit 1
fi
if "$MOSAIC" batch "$WORK/pop" --shard 0/2 > /dev/null 2>&1; then
  echo "--shard without --partials should fail" >&2
  exit 1
fi
# A shard run analyzes nothing: the analysis options belong to the reduce.
for option in "--json $WORK/x.json" "--thresholds $WORK/thresholds.json" \
    "--provenance $WORK/xprov"; do
  rc=0
  # shellcheck disable=SC2086
  "$MOSAIC" batch "$WORK/pop" --shard 0/2 --partials "$WORK/p" $option \
      > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "--shard with $option should be a usage error (exit $rc)" >&2
    exit 1
  fi
done

# --resume without --shards is a usage error, as is a negative --threads;
# the per-file journal and its crash seam are gone (unknown options).
for args in "--resume" "--shard 0/2 --partials $WORK/p --resume" \
    "--journal $WORK/j.jsonl" "--abort-after 1"; do
  rc=0
  # shellcheck disable=SC2086
  "$MOSAIC" batch "$WORK/pop" $args > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "batch $args should be a usage error (exit $rc)" >&2
    exit 1
  fi
done
if "$MOSAIC" batch "$WORK/pop" --threads -2 > /dev/null 2>&1; then
  echo "negative --threads should fail" >&2
  exit 1
fi

echo "cli fault injection ok"
