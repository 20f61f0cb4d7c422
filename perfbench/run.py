#!/usr/bin/env python3
"""End-to-end benchmark entry point for mosaic (see perfbench/README.md).

    python3 perfbench/run.py --workload batch_mbt --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

Builds the product's libraries and the perfbench program from source into
$CARGO_TARGET_DIR (default .bench_build) under the repository root, writes or
reuses the seeded corpus there, runs one workload, and prints its result as
the last line of standard output: {"correct", "attempted", "failed",
"metrics"}. Build logs and human-readable figures go to standard error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BASE = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD = os.path.join(BASE, "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
CORPORA = os.path.join(BASE, "perfbench-corpus")
CORPUS_FILES = 10000
CORPUS_MISSES = 1000
KEEP_CORPORA = 6
RUN_TIMEOUT_S = 170


def log(message):
    print(f"run.py: {message}", file=sys.stderr, flush=True)


def call(argv):
    """Runs argv with stdout folded into our stderr; returns the exit code."""
    return subprocess.run(argv, stdout=sys.stderr).returncode


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if call(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                 "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]) != 0:
            return False
    return call(["cmake", "--build", BUILD, "-j", "4"]) == 0


def corpus(seed, files=CORPUS_FILES, misses=CORPUS_MISSES, root=CORPORA):
    """Returns the corpus directory for (seed, shape), writing it if needed."""
    path = os.path.join(root, f"v2-f{files}-m{misses}-s{seed}")
    manifest = os.path.join(path, "manifest.txt")
    if os.path.exists(manifest):
        os.utime(manifest)
        return path
    # Keep the most recently used corpora only; each is ~0.5 GB.
    os.makedirs(root, exist_ok=True)
    others = sorted(
        (os.path.join(root, d) for d in os.listdir(root)),
        key=lambda d: os.path.getmtime(os.path.join(d, "manifest.txt"))
        if os.path.exists(os.path.join(d, "manifest.txt")) else 0.0)
    for stale in others[:max(0, len(others) - KEEP_CORPORA + 1)]:
        shutil.rmtree(stale, ignore_errors=True)
    start = time.monotonic()
    if call([BINARY, "fixture", "--dir", path, "--seed", str(seed),
             "--files", str(files), "--miss", str(misses)]) != 0:
        return None
    log(f"wrote corpus {path} in {time.monotonic() - start:.1f} s")
    return path


def run(corpus_dir, workload, seed, seconds, trace, extra=()):
    """Runs one workload; returns the parsed result line or None."""
    argv = [BINARY, "run", "--corpus", corpus_dir,
            "--work", os.path.join(BASE, "perfbench-work", workload),
            "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace), *extra]
    try:
        proc = subprocess.run(argv, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"workload {workload} timed out")
        return None
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        log(f"workload {workload} exited with {proc.returncode}")
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"workload {workload} printed no result line")
        return None


def self_test():
    """Tiny corpus: every metric of BENCHMARK.json is emitted with its unit,
    the checks pass on this code, and each deliberately perturbed output is
    caught."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    tiny = corpus(1, files=300, misses=40,
                  root=os.path.join(BASE, "perfbench-selftest"))
    if tiny is None:
        return False
    quick = ["--min-submits", "10"]
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, group in ((0, "end_to_end"), (1, "per_layer")):
            result = run(tiny, workload, 1, 1, trace, quick)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {} if result is None else {
                k: v["unit"] for k, v in result["metrics"].items()}
            passed = (result is not None and result["correct"]
                      and result["failed"] == 0 and got == want)
            if result is not None and got != want:
                log(f"  missing {sorted(set(want) - set(got))}, "
                    f"unexpected {sorted(set(got) - set(want))}, "
                    f"unit mismatch {sorted(k for k in want.keys() & got.keys() if want[k] != got[k])}")
            log(f"{'PASS' if passed else 'FAIL'} {workload} trace={trace}")
            ok = ok and passed
    for mode in ("summary", "funnel", "category", "cached"):
        result = run(tiny, "batch_mbt", 1, 1, 0, quick + ["--perturb", mode])
        caught = (result is not None and not result["correct"]
                  and result["failed"] > 0)
        log(f"{'PASS' if caught else 'FAIL'} perturbed {mode} output is caught")
        ok = ok and caught
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and not args.workload:
        parser.error("--workload is required")
    if not build():
        log("build failed")
        return 1
    if args.self_test:
        return 0 if self_test() else 1
    corpus_dir = corpus(args.seed)
    if corpus_dir is None:
        log("corpus generation failed")
        return 1
    result = run(corpus_dir, args.workload, args.seed, args.seconds, args.trace)
    if result is None:
        return 1
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
