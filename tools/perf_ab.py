#!/usr/bin/env python3
"""Before/after benchmark gate: the working tree against a base commit.

    python3 tools/perf_ab.py <base-ref>

Checks <base-ref> out in a temporary git worktree and, for every workload in
BENCHMARK.json, runs PAIRS pairs of `perfbench/run.py --seconds SECONDS
--trace 0`, one run from each tree. Pair i runs seed i on both sides, and the
side that runs first alternates from pair to pair. Each side builds and runs
the benchmark from its own tree, so both sides are measured on this machine,
in this job, and no number from another machine is involved.

For each end-to-end metric of BENCHMARK.json on each workload, the verdict is

  * regressed, when the change's median is worse than the base's by more
    than the metric's bound AND every change run is worse than every base
    run;
  * unresolved, when only the first holds: the runs overlap, so the spread
    is too wide to tell. Printed, but not a failure;
  * ok otherwise.

The gate also fails when a run does not finish, when a run reports
`correct: false`, or when the change fails a larger share of its operations
than the base. Exit status: 0 pass, 1 fail, 2 setup error.
"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PAIRS = 5
SECONDS = 10


def log(message):
    print(f"perf_ab: {message}", file=sys.stderr, flush=True)


def run_once(side, tree, command, workload, seed, logs):
    """Runs one workload from `tree`; returns its result line or None."""
    argv = [*command, "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", "0"]
    # Each side builds into its own tree, whatever the caller's environment.
    env = dict(os.environ, CARGO_TARGET_DIR=".bench_build")
    log_path = os.path.join(logs, f"{side}-{workload}-{seed}.log")
    with open(log_path, "w") as stderr:
        proc = subprocess.run(argv, cwd=tree, env=env, text=True,
                              stdout=subprocess.PIPE, stderr=stderr)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if proc.returncode == 0 else None
    except (IndexError, json.JSONDecodeError):
        result = None
    if result is None:
        with open(log_path) as stderr:
            tail = stderr.read()[-2000:]
        log(f"{workload} seed {seed} on the {side} side exited with "
            f"{proc.returncode}:\n{tail}")
    return result


def worse(change, base, better):
    """Relative amount by which `change` is worse than `base` (< 0: better)."""
    if base == 0:
        return 0.0 if change == base else float("inf")
    delta = (change - base) / abs(base)
    return -delta if better == "higher" else delta


def verdict(metric, base_runs, change_runs):
    """Returns (line, regressed) for one metric of one workload."""
    base = statistics.median(base_runs)
    change = statistics.median(change_runs)
    amount = worse(change, base, metric["better"])
    if metric["better"] == "higher":
        separated = max(change_runs) < min(base_runs)
    else:
        separated = min(change_runs) > max(base_runs)
    state = "ok"
    if amount > metric["bound"]:
        state = "REGRESSED" if separated else "unresolved"
    moved = f"{(change - base) / abs(base):+.1%}" if base else "n/a"
    line = (f"  {metric['name']:<22} {metric['unit']:>5} "
            f"{base:>14.6g} {change:>14.6g} {moved:>9} "
            f"{metric['bound']:>6.0%}  {state}")
    return line, state == "REGRESSED"


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    base_ref = sys.argv[1]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        spec = json.load(handle)

    temp_dir = tempfile.mkdtemp(prefix="perf_ab-")
    base_tree = os.path.join(temp_dir, "base")
    logs = os.path.join(temp_dir, "logs")
    os.makedirs(logs)
    if subprocess.run(["git", "-C", ROOT, "worktree", "add", "--detach",
                       base_tree, base_ref]).returncode != 0:
        shutil.rmtree(temp_dir, ignore_errors=True)
        log(f"cannot check out {base_ref}")
        return 2
    try:
        sides = {"base": base_tree, "change": ROOT}
        runs = {}  # (side, workload) -> list of result lines
        failed = False
        for workload in (w["name"] for w in spec["workloads"]):
            for pair in range(PAIRS):
                seed = pair + 1
                order = ("base", "change") if pair % 2 == 0 else (
                    "change", "base")
                for side in order:
                    log(f"{workload} pair {pair + 1}/{PAIRS}: {side}, "
                        f"seed {seed}")
                    result = run_once(side, sides[side], spec["command"],
                                      workload, seed, logs)
                    if result is None:
                        failed = True
                        continue
                    log("  " + " ".join(
                        f"{m['name']}={result['metrics'][m['name']]['value']:.6g}"
                        for m in spec["end_to_end"]))
                    if not result["correct"]:
                        log(f"{workload} seed {seed}: {side} output is "
                            "not correct")
                        failed = True
                    runs.setdefault((side, workload), []).append(result)

        for workload in (w["name"] for w in spec["workloads"]):
            base_results = runs.get(("base", workload), [])
            change_results = runs.get(("change", workload), [])
            if not base_results or not change_results:
                print(f"{workload}: no complete runs on one side")
                failed = True
                continue
            print(f"{workload}: {len(base_results)} base and "
                  f"{len(change_results)} change runs, {SECONDS} s each")
            print(f"  {'metric':<22} {'unit':>5} {'base median':>14} "
                  f"{'change median':>14} {'change':>9} {'bound':>6}  verdict")
            for metric in spec["end_to_end"]:
                name = metric["name"]
                line, regressed = verdict(
                    metric,
                    [r["metrics"][name]["value"] for r in base_results],
                    [r["metrics"][name]["value"] for r in change_results])
                print(line)
                failed = failed or regressed
            shares = {}
            for side, results in (("base", base_results),
                                  ("change", change_results)):
                attempted = sum(r["attempted"] for r in results)
                bad = sum(r["failed"] for r in results)
                shares[side] = bad / attempted if attempted else 0.0
                print(f"  failed operations, {side}: {bad}/{attempted}")
            if shares["change"] > shares["base"]:
                print("  REGRESSED: the change fails a larger share of "
                      "operations")
                failed = True
        print("perf A/B gate " + ("FAILED" if failed else "passed"))
        return 1 if failed else 0
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                        base_tree])
        shutil.rmtree(temp_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
