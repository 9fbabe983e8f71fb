#!/usr/bin/env python3
"""Structural lint for fi_orchestrate plan files (plans/*.plan).

Mirrors the schema checks of `fi::ExperimentPlan::from_config/validate`
(src/api/experiment_plan.cpp) closely enough to catch plan drift in the
fast CI lint job, which deliberately never builds the simulator: node
groups dense from 0, known keys only, node-kind key exclusivity, parent
edges that exist and are acyclic, and scenario paths that resolve. The
C++ parser stays authoritative — `fi_orchestrate --validate` is the
ground truth this script approximates without a compiler.

Usage: check_plan_files.py plans/*.plan
"""

import re
import sys
from pathlib import Path

NODE_NAME = re.compile(r"^[A-Za-z0-9_-]{1,64}$")

# node.<i>.<key> keys the C++ parser consumes, by node kind.
COMMON_KEYS = {"name", "kind"}
SCENARIO_KEYS = COMMON_KEYS | {
    "scenario",
    "parent",
    "parent_snapshot",
    "parent_hash",
    "epochs",
}
BASELINE_KEYS = COMMON_KEYS | {
    "protocol",
    "seed",
    "sectors",
    "files",
    "file_size",
    "file_value",
    "lambda",
    "sybil_fraction",
    "epochs",
}
BASELINE_PROTOCOLS = {"filecoin", "sia", "storj", "arweave"}


def parse_kv(path: Path):
    """The key=value subset of util::Config (plans never use the JSON form)."""
    entries = {}
    errors = []
    for lineno, raw in enumerate(path.read_text().splitlines(), 1):
        line = raw.split("#", 1)[0].split(";", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            errors.append(f"{path}:{lineno}: not a key=value line: {raw.strip()!r}")
            continue
        key, value = (part.strip() for part in line.split("=", 1))
        if not key:
            errors.append(f"{path}:{lineno}: empty key")
        elif key in entries:
            errors.append(f"{path}:{lineno}: duplicate key {key!r}")
        else:
            entries[key] = value
    return entries, errors


def group_nodes(path: Path, entries):
    """Split node.<i>.* groups, insisting they are dense from 0."""
    errors = []
    nodes = {}
    for key in entries:
        match = re.match(r"^node\.(\d+)\.(.+)$", key)
        if match:
            nodes.setdefault(int(match.group(1)), {})[match.group(2)] = entries[key]
        elif key != "plan.name":
            errors.append(f"{path}: unknown plan key {key!r}")
    if not nodes:
        errors.append(f"{path}: plan has no nodes (node.0.name missing?)")
    elif sorted(nodes) != list(range(len(nodes))):
        errors.append(
            f"{path}: node indices {sorted(nodes)} are not dense from 0"
        )
    return [nodes[i] for i in sorted(nodes)], errors


def check_node(path: Path, index: int, node: dict, names: dict) -> list:
    where = f"{path}: node.{index}"
    errors = []
    name = node.get("name", "")
    if not NODE_NAME.match(name):
        errors.append(f"{where}: name {name!r} must match [A-Za-z0-9_-]{{1,64}}")
    elif name in names:
        errors.append(f"{where}: duplicate node name {name!r}")

    kind = node.get("kind", "scenario")
    if kind not in ("scenario", "baseline"):
        errors.append(f"{where}: unknown kind {kind!r}")
        return errors

    allowed = BASELINE_KEYS if kind == "baseline" else SCENARIO_KEYS
    for key in node:
        if key in allowed or (kind == "scenario" and key.startswith("set.")):
            continue
        errors.append(f"{where}: key {key!r} does not apply to a {kind} node")

    for key in ("epochs", "seed", "sectors", "files", "file_size",
                "file_value"):
        if key in node and not node[key].isdigit():
            errors.append(f"{where}: {key} must be an unsigned integer")
    for key in ("lambda", "sybil_fraction"):
        if key in node:
            try:
                value = float(node[key])
            except ValueError:
                value = -1.0
            if not 0.0 < value < 1.0:
                errors.append(f"{where}: {key} must be a fraction in (0, 1)")

    if kind == "baseline":
        protocol = node.get("protocol", "")
        if protocol == "fileinsurer":
            errors.append(
                f"{where}: baseline protocol 'fileinsurer' was retired: "
                f"FileInsurer rows come from scenario nodes that run the "
                f"protocol engine, as in plans/table4.plan"
            )
        elif protocol not in BASELINE_PROTOCOLS:
            errors.append(
                f"{where}: unknown baseline protocol {protocol!r} "
                f"(valid: {', '.join(sorted(BASELINE_PROTOCOLS))})"
            )
        return errors

    sources = [k for k in ("scenario", "parent", "parent_snapshot") if k in node]
    if len(sources) != 1:
        errors.append(
            f"{where}: exactly one of scenario/parent/parent_snapshot is "
            f"required (got {sources or 'none'})"
        )
    if "parent_hash" in node:
        if "parent_snapshot" not in node:
            errors.append(f"{where}: parent_hash only applies to parent_snapshot edges")
        elif not re.match(r"^[0-9a-f]{64}$", node["parent_hash"]):
            errors.append(f"{where}: parent_hash must be 64 lowercase hex chars")
    if "scenario" in node:
        config = (path.parent / node["scenario"]).resolve()
        if not config.is_file():
            errors.append(f"{where}: scenario config not found: {config}")
    return errors


def check_plan(path: Path) -> list:
    entries, errors = parse_kv(path)
    if errors:
        return errors
    nodes, errors = group_nodes(path, entries)
    if errors:
        return errors

    names = {}
    for index, node in enumerate(nodes):
        errors.extend(check_node(path, index, node, names))
        if "name" in node:
            names[node["name"]] = index

    # Parent edges: must exist, point at scenario nodes, and be acyclic.
    for index, node in enumerate(nodes):
        parent = node.get("parent")
        if parent is None:
            continue
        if parent not in names:
            errors.append(f"{path}: node.{index}: unknown parent {parent!r}")
        elif nodes[names[parent]].get("kind", "scenario") == "baseline":
            errors.append(
                f"{path}: node.{index}: cannot fork from baseline {parent!r}"
            )
    for index in range(len(nodes)):
        at, hops = index, 0
        while "parent" in nodes[at] and nodes[at]["parent"] in names:
            at = names[nodes[at]["parent"]]
            hops += 1
            if hops > len(nodes):
                errors.append(f"{path}: node.{index}: parent chain contains a cycle")
                break
    return errors


def main(argv: list) -> int:
    if len(argv) < 2:
        print("usage: check_plan_files.py <plan file>...", file=sys.stderr)
        return 2
    failures = []
    for arg in argv[1:]:
        path = Path(arg)
        if not path.is_file():
            failures.append(f"{path}: no such file")
            continue
        problems = check_plan(path)
        failures.extend(problems)
        if not problems:
            print(f"plan ok: {path}")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
