#!/usr/bin/env python3
"""fi_lint — determinism & serialization lint suite for FileInsurer.

Three custom checkers over a lightweight C++ structural model (see
cpp_model.py; docs/STATIC_ANALYSIS.md has the catalog):

  serialization-coverage   every data member of a class with a
                           save/load (or save_state/load_state) pair is
                           referenced in both bodies, and element-wise
                           struct encodings touch every field
  determinism              no wall clocks, raw rand/mt19937, literal-seeded
                           RNG streams, unordered-container iteration or
                           pointer-keyed maps in state-mutating layers
  snapshot-hygiene         BinaryReader length reads are bounds-validated
                           before sizing allocations; FISNAP writer/reader
                           call sequences stay mirror-symmetric

Usage:
  tools/fi_lint/fi_lint.py [--repo DIR] [--compile-commands FILE]
                           [--checker NAME]... [paths...]

With no explicit paths, the file list comes from --compile-commands when
given (CMAKE_EXPORT_COMPILE_COMMANDS=ON output; headers are added by
scanning the source dirs), else every .h/.cpp under src/.

Exit status: 0 clean, 1 findings, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import (  # noqa: E402
    Finding,
    check_determinism,
    check_serialization_coverage,
    check_snapshot_hygiene,
)
from cpp_model import Model  # noqa: E402

# Layers whose code feeds canonical state — the determinism checker's scope
# (src/util and src/crypto host the sanctioned primitives; src/sim joined
# when NetModel became the scenario delivery substrate).
DETERMINISM_DIRS = ("src/core", "src/scenario", "src/adversary",
                    "src/snapshot", "src/ledger", "src/traffic", "src/sim")

CHECKERS = ("serialization-coverage", "determinism", "snapshot-hygiene")


def discover_files(repo: str, compile_commands: str | None) -> list[str]:
    files: set[str] = set()
    src_root = os.path.join(repo, "src")
    if compile_commands:
        with open(compile_commands, encoding="utf-8") as fh:
            for entry in json.load(fh):
                path = os.path.normpath(
                    os.path.join(entry.get("directory", ""), entry["file"])
                )
                if os.path.commonpath([os.path.abspath(src_root)]) == \
                        os.path.commonpath([os.path.abspath(src_root),
                                            os.path.abspath(path)]):
                    files.add(path)
    for root, _, names in os.walk(src_root):
        for name in names:
            if name.endswith((".h", ".hpp")) or (
                not compile_commands and name.endswith(".cpp")
            ):
                files.add(os.path.join(root, name))
    return sorted(files)


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("paths", nargs="*",
                    help="files or directories to lint (default: src/)")
    ap.add_argument("--repo", default=os.path.normpath(
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "..")))
    ap.add_argument("--compile-commands",
                    help="compile_commands.json to derive the TU list from")
    ap.add_argument("--checker", action="append", choices=CHECKERS,
                    help="run only the named checker(s)")
    ap.add_argument("--determinism-dir", action="append", default=None,
                    help="override the determinism checker's directory scope")
    args = ap.parse_args(argv)

    if args.paths:
        files = []
        for p in args.paths:
            if os.path.isdir(p):
                for root, _, names in os.walk(p):
                    files.extend(
                        os.path.join(root, n) for n in names
                        if n.endswith((".h", ".hpp", ".cpp", ".cc"))
                    )
            else:
                files.append(p)
        files = sorted(set(files))
    else:
        files = discover_files(args.repo, args.compile_commands)

    if not files:
        print("fi_lint: no input files", file=sys.stderr)
        return 2

    model = Model()
    for path in files:
        try:
            with open(path, encoding="utf-8", errors="replace") as fh:
                model.add_file(path, fh.read())
        except OSError as exc:
            print(f"fi_lint: cannot read {path}: {exc}", file=sys.stderr)
            return 2

    det_dirs = tuple(args.determinism_dir) if args.determinism_dir \
        else DETERMINISM_DIRS
    det_paths = {
        p for p in files
        if any(os.path.normpath(os.path.join(args.repo, d)) in
               os.path.abspath(p) or d in p.replace(os.sep, "/")
               for d in det_dirs)
    }
    # Explicit paths (fixture runs) are always in determinism scope.
    if args.paths:
        det_paths = set(files)

    checkers = args.checker or list(CHECKERS)
    findings: list[Finding] = []
    if "serialization-coverage" in checkers:
        findings.extend(check_serialization_coverage(model))
    if "determinism" in checkers:
        findings.extend(check_determinism(model, det_paths))
    if "snapshot-hygiene" in checkers:
        findings.extend(check_snapshot_hygiene(model))

    findings = sorted(set(findings), key=lambda f: (f.path, f.line, f.rule))
    for finding in findings:
        print(finding.render())
    if findings:
        print(f"fi_lint: {len(findings)} finding(s) in {len(files)} files",
              file=sys.stderr)
        return 1
    print(f"fi_lint: clean ({len(files)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
