#!/usr/bin/env python3
"""Perf-regression gate over BENCH_perf_pipeline.json.

Checks a freshly measured `bench/perf_pipeline --overhead-only` result,
against the committed baseline where one is needed, and fails (exit 1) when

  * the instrumentation overhead (instrumentation.overhead_pct) exceeds
    --max-overhead-pct (default 10%) in absolute terms: the instrumentation
    surface costs ~10 us per 1000-trace pass, a fixed cost against a pass
    of well under a millisecond, or
  * steady-state allocations per trace (allocations.per_trace) grew more
    than --max-alloc-increase-pct (default 10%) plus a 2-allocation slack
    over the baseline. Skipped unless both files carry counted results, or
  * the sampling profiler breaks its budget: enabled at the default rate
    costs more than --max-profiler-on-pct (default 5%), or the disabled
    A/A null experiment (profiler.off_overhead_pct) strays outside
    ±--max-profiler-off-pct (default 3%) — the disabled hook is one relaxed
    atomic load per frame, so any off-cost beyond harness noise is a bug.
    Skipped when the current file has no "profiler" section.

Every check compares two measurements taken in the same run on the same
box, or counts allocations, so none depends on the machine the baseline was
measured on. Throughput is compared before and after on one runner by
tools/perf_ab.py instead. The allocation count is near-deterministic (same
population, one thread, warmed workspace), so its budget is deliberately
tight: a new per-trace allocation on the hot path is exactly the regression
the workspace model exists to prevent.

Usage:
    check_perf_regression.py <baseline.json> <current.json> [options]
"""
import argparse
import json
import sys


def load(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)
    except (OSError, ValueError) as error:
        sys.exit(f"check_perf_regression: cannot read {path}: {error}")


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", help="committed BENCH_perf_pipeline.json")
    parser.add_argument("current", help="freshly measured result")
    parser.add_argument("--max-overhead-pct", type=float, default=10.0)
    parser.add_argument("--max-alloc-increase-pct", type=float, default=10.0)
    parser.add_argument("--max-profiler-on-pct", type=float, default=5.0)
    parser.add_argument("--max-profiler-off-pct", type=float, default=3.0)
    args = parser.parse_args()

    baseline = load(args.baseline)
    current = load(args.current)
    failures = []

    overhead = float(
        current.get("instrumentation", {}).get("overhead_pct", 0.0)
    )
    print(
        f"instrumentation overhead: {overhead:.2f}% "
        f"(budget {args.max_overhead_pct:.0f}%)"
    )
    if overhead > args.max_overhead_pct:
        failures.append(
            f"instrumentation overhead {overhead:.2f}% exceeds "
            f"{args.max_overhead_pct:.0f}% budget"
        )

    base_allocs = baseline.get("allocations", {})
    cur_allocs = current.get("allocations", {})
    if base_allocs.get("counted") and cur_allocs.get("counted"):
        base_per = float(base_allocs.get("per_trace", 0.0))
        cur_per = float(cur_allocs.get("per_trace", 0.0))
        budget = base_per * (1.0 + args.max_alloc_increase_pct / 100.0) + 2.0
        print(
            f"allocations/trace: baseline {base_per:.2f}, "
            f"current {cur_per:.2f} (budget {budget:.2f})"
        )
        if cur_per > budget:
            failures.append(
                f"allocations per trace grew to {cur_per:.2f} "
                f"(budget {budget:.2f})"
            )
    else:
        print("allocations/trace: not counted on both sides, skipping")

    profiler = current.get("profiler")
    if profiler is not None:
        on_pct = float(profiler.get("enabled_overhead_pct", 0.0))
        off_pct = float(profiler.get("off_overhead_pct", 0.0))
        print(
            f"profiler overhead: off {off_pct:+.2f}% "
            f"(null budget ±{args.max_profiler_off_pct:.0f}%), "
            f"enabled {on_pct:.2f}% "
            f"(budget {args.max_profiler_on_pct:.0f}%)"
        )
        if abs(off_pct) > args.max_profiler_off_pct:
            failures.append(
                f"profiler-off A/A drift {off_pct:+.2f}% outside "
                f"±{args.max_profiler_off_pct:.0f}% — disabled hooks are "
                "not free or the harness is too noisy to gate"
            )
        if on_pct > args.max_profiler_on_pct:
            failures.append(
                f"profiler-enabled overhead {on_pct:.2f}% exceeds "
                f"{args.max_profiler_on_pct:.0f}% budget"
            )
    else:
        print("profiler overhead: no profiler section, skipping")

    if failures:
        for failure in failures:
            print(f"FAIL: {failure}", file=sys.stderr)
        return 1
    print("perf gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
