#!/usr/bin/env python3
"""Self-tests for the benchmark harness, at smoke size, in seconds.

    python3 perfbench/selftest.py

Runs every workload named in BENCHMARK.json at smoke size through run.py,
untraced and traced, and checks: the result schema; that each run passed
all of fi_bench's own checks (report invariants, resume hash, and in the
traced run the traced driver's equality with the Session run at workers 4
and 1); that the metric names and units are exactly BENCHMARK.json's;
that end-to-end values are positive and shares sum to 1; that a repeated
seed gives a repeated snapshot; and that an unknown workload fails
without a result. No pinned hash applies at smoke size.
"""

import json
import math
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run as bench  # noqa: E402

SEED = 1
failures = []


def check(condition, what):
    if not condition:
        failures.append(what)
        print(f"FAIL: {what}", file=sys.stderr)


def check_run(workload, trace, expected):
    label = f"{workload} trace={trace}"
    result = bench.run(workload, SEED, 0, trace, smoke=True)
    check(result is not None, f"{label}: no result")
    if result is None:
        return None
    check(result["correct"] is True, f"{label}: a check failed")
    check(result["failed"] == 0, f"{label}: failed={result['failed']}")
    check(result["attempted"] >= 1, f"{label}: attempted < 1")
    metrics = result["metrics"]
    check(set(metrics) == set(expected),
          f"{label}: metric names differ from BENCHMARK.json: "
          f"{sorted(set(metrics) ^ set(expected))}")
    for name, metric in metrics.items():
        check(set(metric) == {"value", "unit"}, f"{label}: {name} keys")
        check(math.isfinite(metric["value"]), f"{label}: {name} not finite")
        if name in expected:
            check(metric["unit"] == expected[name],
                  f"{label}: {name} unit {metric['unit']} != {expected[name]}")
        if trace == 0:
            check(metric["value"] > 0, f"{label}: {name} is not positive")
    if trace == 1:
        shares = sum(v["value"] for k, v in metrics.items()
                     if k.endswith(".share"))
        check(abs(shares - 1.0) < 1e-9, f"{label}: shares sum to {shares}")
        check(metrics["scenario.self.s"]["value"] >= 0,
              f"{label}: layer spans exceed the traced total")
    return metrics


def main():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    for workload in (w["name"] for w in spec["workloads"]):
        first = check_run(workload, 0, end_to_end)
        again = check_run(workload, 0, end_to_end)
        if first and again:
            check(first["snapshot_mb"]["value"] == again["snapshot_mb"]["value"],
                  f"{workload}: same seed, different snapshot size")
        check_run(workload, 1, per_layer)
    check(bench.run("no_such_workload", SEED, 0, 0, smoke=True) is None,
          "an unknown workload produced a result")
    print("selftest:", "FAILED" if failures else "ok", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
