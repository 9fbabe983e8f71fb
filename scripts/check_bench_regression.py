#!/usr/bin/env python3
"""Gate bench JSON results against a checked-in baseline.

Usage:
    check_bench_regression.py <measured.json> <baseline.json>
        [--threshold 2.0] [--append-trajectory <file.jsonl>]
        [--run-label <label>]

Both files follow the emitting bench's --json schema (docs/BENCHMARKS.md)
and carry a top-level "bench" name, which selects the gate schema:

  bench_scale_engine   epoch_latency / rent_scaling, lower-is-better.
  bench_retrieval      retrieval_throughput, HIGHER-is-better (requests/sec
                       through the full retrieval pipeline), plus a hard
                       floor of 10^5 requests/sec that no baseline drift
                       can relax.

For every point in the *baseline* the measured run must exist and must not
regress past baseline x/÷ threshold; the threshold is deliberately generous
(default 2x) because CI runners vary — the gate catches algorithmic
regressions (a hot path going accidentally quadratic), not
single-digit-percent noise. Hard floors are absolute:
they bind even when the baseline would allow worse.

A missing, unreadable, or structurally empty baseline is an ERROR, not a
pass: a gate that silently compares against nothing is worse than no gate
(it reads as green while checking zero points).

With --append-trajectory the script appends one JSON line summarizing the
measured run to the given file (creating it if needed), so CI can persist a
perf history across builds (docs/BENCHMARKS.md "perf trajectory").

Exit status: 0 when every check passes, 1 otherwise (including malformed
inputs).
"""

import argparse
import json
import sys

# bench name -> axis name -> (point key, gated metric, direction, hard floor)
# direction "lower": measured must be <= baseline * threshold.
# direction "higher": measured must be >= baseline / threshold.
# The hard floor (higher-direction only) binds regardless of the baseline.
BENCH_SCHEMAS = {
    "bench_scale_engine": {
        "epoch_latency": ("files", "per_epoch_seconds", "lower", None),
        "rent_scaling": ("sectors", "us_per_rent_cycle", "lower", None),
    },
    "bench_retrieval": {
        "retrieval_throughput":
            ("files", "requests_per_second", "higher", 1e5),
    },
}


def load_json(path, role):
    """Loads a JSON file, translating I/O and parse failures into clean
    gate errors instead of tracebacks."""
    try:
        with open(path, encoding="utf-8") as f:
            return json.load(f)
    except OSError as exc:
        print(f"error: cannot read {role} file {path}: {exc}",
              file=sys.stderr)
        return None
    except json.JSONDecodeError as exc:
        print(f"error: {role} file {path} is not valid JSON: {exc}",
              file=sys.stderr)
        return None


def resolve_schema(measured, baseline, measured_path, baseline_path):
    """Picks the gate schema from the measured run's "bench" name and
    insists the baseline was produced by the same bench — gating one
    bench's numbers against another's baseline must never pass silently."""
    problems = []
    name = measured.get("bench") if isinstance(measured, dict) else None
    if name not in BENCH_SCHEMAS:
        known = ", ".join(sorted(BENCH_SCHEMAS))
        problems.append(f"measured {measured_path}: top-level \"bench\" is "
                        f"{name!r}, expected one of: {known}")
        return None, problems
    base_name = baseline.get("bench") if isinstance(baseline, dict) else None
    if base_name != name:
        problems.append(f"baseline {baseline_path}: \"bench\" is "
                        f"{base_name!r} but the measured run is {name!r} — "
                        f"mismatched baseline")
        return None, problems
    return BENCH_SCHEMAS[name], problems


def validate_structure(data, path, role, schema):
    """A usable run/baseline has every gated axis, non-empty, with the keyed
    fields present in every row. Anything less means the gate would silently
    skip points."""
    problems = []
    if not isinstance(data, dict):
        return [f"{role} {path}: top level is not a JSON object"]
    for axis, (key, metric, _direction, _floor) in schema.items():
        rows = data.get(axis)
        if not isinstance(rows, list) or not rows:
            problems.append(f"{role} {path}: axis '{axis}' is missing or "
                            f"empty — nothing to gate")
            continue
        for i, row in enumerate(rows):
            if not isinstance(row, dict) or key not in row or metric not in row:
                problems.append(
                    f"{role} {path}: {axis}[{i}] lacks '{key}'/'{metric}'")
    return problems


def index_by(rows, key):
    return {row[key]: row for row in rows}


def check_axis(name, measured_rows, baseline_rows, key, metric, direction,
               floor, threshold, failures):
    measured = index_by(measured_rows, key)
    for point, base in index_by(baseline_rows, key).items():
        got = measured.get(point)
        if got is None:
            failures.append(
                f"{name}: baseline point {key}={point} missing from the "
                f"measured run")
            continue
        if direction == "lower":
            limit = base[metric] * threshold
            bad = got[metric] > limit
            relation = f"{got[metric]:.6f} <= {limit:.6f}"
        else:
            limit = base[metric] / threshold
            bad = got[metric] < limit
            relation = f"{got[metric]:.6f} >= {limit:.6f}"
        if bad:
            failures.append(
                f"{name} [{key}={point}]: {metric} regressed — measured "
                f"{got[metric]:.6f} vs allowed {limit:.6f} "
                f"(baseline {base[metric]:.6f}, threshold {threshold}, "
                f"{direction}-is-better)")
        else:
            print(f"ok: {name} [{key}={point}] {metric} {relation}")
        if floor is not None and got[metric] < floor:
            failures.append(
                f"{name} [{key}={point}]: {metric} {got[metric]:.1f} is "
                f"below the hard floor {floor:.0f}")
    # Hard floors bind measured points even when the baseline lacks them —
    # a pruned baseline must not disable the absolute requirement.
    if floor is not None:
        baseline_points = set(index_by(baseline_rows, key))
        for point, got in measured.items():
            if point not in baseline_points and got[metric] < floor:
                failures.append(
                    f"{name} [{key}={point}]: {metric} {got[metric]:.1f} is "
                    f"below the hard floor {floor:.0f} (no baseline point)")


def append_trajectory(path, label, measured, schema):
    """Appends a one-line summary of the measured run, so successive CI
    builds accumulate a perf history instead of discarding each run."""
    entry = {"label": label, "bench": measured.get("bench")}
    for axis, (key, metric, _direction, _floor) in schema.items():
        entry[axis] = [{key: row[key], metric: row[metric]}
                       for row in measured.get(axis, [])]
    try:
        with open(path, "a", encoding="utf-8") as f:
            f.write(json.dumps(entry, sort_keys=True) + "\n")
    except OSError as exc:
        print(f"error: cannot append trajectory to {path}: {exc}",
              file=sys.stderr)
        return False
    print(f"trajectory: appended run '{label}' to {path}")
    return True


def main():
    parser = argparse.ArgumentParser(
        description="Compare bench JSON against a baseline")
    parser.add_argument("measured")
    parser.add_argument("baseline")
    parser.add_argument("--threshold", type=float, default=2.0,
                        help="allowed regression factor (default: 2.0)")
    parser.add_argument("--append-trajectory", metavar="FILE",
                        help="append a one-line JSON summary of the measured "
                             "run to this .jsonl file")
    parser.add_argument("--run-label", default="local",
                        help="label stored with the trajectory entry "
                             "(e.g. the CI run number)")
    args = parser.parse_args()

    measured = load_json(args.measured, "measured")
    baseline = load_json(args.baseline, "baseline")
    if measured is None or baseline is None:
        return 1

    schema, structural = resolve_schema(measured, baseline, args.measured,
                                        args.baseline)
    if schema is not None:
        structural += validate_structure(measured, args.measured, "measured",
                                         schema)
        structural += validate_structure(baseline, args.baseline, "baseline",
                                         schema)
    if structural:
        print(f"\n{len(structural)} structural problem(s) — refusing to "
              f"gate against a hollow input:", file=sys.stderr)
        for problem in structural:
            print(f"  - {problem}", file=sys.stderr)
        return 1

    failures = []
    for axis, (key, metric, direction, floor) in schema.items():
        check_axis(axis, measured.get(axis, []), baseline.get(axis, []),
                   key, metric, direction, floor, args.threshold, failures)

    if args.append_trajectory:
        if not append_trajectory(args.append_trajectory, args.run_label,
                                 measured, schema):
            return 1

    if failures:
        print(f"\n{len(failures)} bench regression check(s) FAILED:",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nall bench regression checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
