#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md beside this file).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (which compiles the engine from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench under the
repository root, runs fi_bench with the given arguments, and prints its
result object as the last line of stdout. Exits non-zero, without a
result, if the build or the run fails. --smoke (used by selftest.py) runs
the workloads at smoke size.
"""

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_TIMEOUT_S = 170


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return os.path.join(ROOT, target, "perfbench")


def build():
    """Configures and builds fi_bench; returns its path or None."""
    out = build_dir()
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    configure = ["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", out,
                 "-DCMAKE_BUILD_TYPE=Release", *generator]
    if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
        return None
    jobs = str(min(4, os.cpu_count() or 1))
    compile_cmd = ["cmake", "--build", out, "--target", "fi_bench", "-j", jobs]
    if subprocess.run(compile_cmd, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(out, "fi_bench")


def run(workload, seed, seconds, trace, smoke=False):
    """Runs one measurement; returns the parsed result object or None."""
    binary = build()
    if binary is None:
        print("run.py: build failed", file=sys.stderr)
        return None
    work_dir = os.path.join(build_dir(), "run")
    os.makedirs(work_dir, exist_ok=True)
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--root", ROOT, "--work-dir", work_dir]
    if smoke:
        cmd.append("--smoke")
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        try:
            stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"run.py: fi_bench exceeded {RUN_TIMEOUT_S}s", file=sys.stderr)
            return None
        finally:
            # Also on SIGTERM (see main): never leave fi_bench running.
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"run.py: fi_bench exited with {proc.returncode}", file=sys.stderr)
        return None
    result = json.loads(lines[-1])
    if set(result) != RESULT_KEYS:
        print(f"run.py: malformed result keys {sorted(result)}", file=sys.stderr)
        return None
    return result


def main():
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    result = run(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    if result is None:
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
