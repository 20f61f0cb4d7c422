#!/usr/bin/env bash
# End-to-end smoke test of the `mosaic` CLI: generate -> analyze -> batch ->
# thresholds round trip. Any non-zero exit or missing output fails the test.
set -euo pipefail
MOSAIC="$1"
WORK="$(mktemp -d)"
trap 'rm -rf "$WORK"' EXIT

"$MOSAIC" thresholds > "$WORK/thresholds.json"
grep -q '"min_bytes"' "$WORK/thresholds.json"

"$MOSAIC" thresholds --write "$WORK/t2.json"
diff "$WORK/thresholds.json" "$WORK/t2.json"

"$MOSAIC" generate "$WORK/pop" --traces 60 --seed 7 --format mixed \
    --corruption 0.2
count=$(ls "$WORK/pop" | wc -l)
[ "$count" -eq 60 ]

# analyze returns 1 when some traces are corrupted (expected here), but must
# still categorize the rest.
"$MOSAIC" analyze "$WORK/pop" > "$WORK/analyze.txt" || true
grep -q 'insignificant' "$WORK/analyze.txt"

"$MOSAIC" batch "$WORK/pop" --json "$WORK/summary.json" > "$WORK/batch.txt"
grep -q 'funnel:' "$WORK/batch.txt"
grep -q '"preprocessing"' "$WORK/summary.json"

# Custom thresholds change behavior: an absurd min_bytes makes everything
# insignificant.
python3 - "$WORK/thresholds.json" <<'PY'
import json, sys
with open(sys.argv[1]) as f:
    config = json.load(f)
config["min_bytes"] = 10**15
with open(sys.argv[1], "w") as f:
    json.dump(config, f)
PY
"$MOSAIC" batch "$WORK/pop" --thresholds "$WORK/thresholds.json" \
    > "$WORK/strict.txt"
if grep -qE 'read_on_start|write_on_end' "$WORK/strict.txt"; then
  echo "expected everything insignificant under the strict config" >&2
  exit 1
fi

"$MOSAIC" report "$WORK/pop" --out "$WORK/report.md" > /dev/null
grep -q '# MOSAIC analysis report' "$WORK/report.md"
grep -q 'Pre-processing funnel' "$WORK/report.md"

# Malformed numeric options are usage errors (exit 2), never a silent
# default or a runaway run (--traces -1 must not wrap to 2^64-1 traces).
expect_usage_error() {
  local rc=0
  timeout 10 "$MOSAIC" "$@" > /dev/null 2>&1 || rc=$?
  if [ "$rc" -ne 2 ]; then
    echo "expected exit 2 from: mosaic $* (got $rc)" >&2
    exit 1
  fi
}
expect_usage_error generate "$WORK/bad" --traces -1
expect_usage_error generate "$WORK/bad" --traces abc
expect_usage_error generate "$WORK/bad" --seed xyz
expect_usage_error generate "$WORK/bad" --corruption 7
expect_usage_error report "$WORK/pop" --out "$WORK/bad.md" --top-pairs abc

# analyze reads each file on its own and folds nothing: it takes the retry
# group and --fault-inject, and the options only a batch fold applies are
# unknown there (exit 2) rather than accepted and ignored.
mkdir "$WORK/poison"
echo "not a darshan trace" > "$WORK/poison/x.txt"
expect_usage_error analyze "$WORK/poison" --quarantine "$WORK/q"
expect_usage_error analyze "$WORK/poison" --resume
[ ! -e "$WORK/q" ]
[ -e "$WORK/poison/x.txt" ]
rc=0
"$MOSAIC" analyze "$WORK/poison" --retries 1 --deadline 5 \
    --fault-inject 'seed=1,eio=1.0,eio_failures=1' > /dev/null || rc=$?
[ "$rc" -eq 1 ]  # the one trace fails to parse

# An input directory that cannot be listed aborts every command that expands
# inputs, instead of running on a smaller corpus. Root lists a mode-000
# directory anyway, so the check runs only where it can fail.
mkdir "$WORK/locked"
chmod 000 "$WORK/locked"
if ! ls "$WORK/locked" > /dev/null 2>&1; then
  expect_usage_error batch "$WORK/locked"
  expect_usage_error report "$WORK/locked" --out "$WORK/locked.md"
  expect_usage_error analyze "$WORK/locked"
  expect_usage_error dispatch "$WORK/locked" --workers 127.0.0.1:9 \
      --partials "$WORK/locked-parts"
fi
chmod 755 "$WORK/locked"

echo "cli smoke ok"
