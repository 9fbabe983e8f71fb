#!/usr/bin/env python3
"""Check that every library file under src/ is reachable from a root.

Usage: check_reachability.py [--repo DIR]

The roots are the programs that reproduce the paper: the tools
(tools/*.cpp) and the theorem/table reproductions
(bench/bench_theorem*.cpp, bench/bench_table*.cpp). Starting from them,
the script follows quoted `#include "dir/file.h"` lines (resolved
against src/, the library's include root); a reached header also
reaches the .cpp beside it, since that is where its definitions live.
Every src/ file the walk never reaches is printed, and the exit status
is then 1: wire the file into a tool or paper reproduction, or delete
it. Tests, examples and the other benches do not count as roots: a
module that only they exercise is dead library code.

Standard library only, by design: the repo's tooling policy is no
third-party dependencies outside the C++ toolchain.
"""

import argparse
import re
import sys
from pathlib import Path

ROOT_GLOBS = (
    "tools/*.cpp",
    "bench/bench_theorem*.cpp",
    "bench/bench_table*.cpp",
)
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
SOURCE_SUFFIXES = (".h", ".cpp")


def reachable(repo: Path) -> set[Path]:
    src = repo / "src"
    todo = [p for pattern in ROOT_GLOBS for p in sorted(repo.glob(pattern))]
    seen: set[Path] = set()
    while todo:
        path = todo.pop()
        if path in seen:
            continue
        seen.add(path)
        for target in INCLUDE_RE.findall(path.read_text(encoding="utf-8")):
            header = src / target
            if not header.is_file():
                continue
            todo.append(header)
            impl = header.with_suffix(".cpp")
            if impl.is_file():
                todo.append(impl)
    return seen


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repo", default=".", type=Path)
    repo = parser.parse_args().repo.resolve()

    reached = reachable(repo)
    library = sorted(
        p
        for p in (repo / "src").rglob("*")
        if p.is_file() and p.suffix in SOURCE_SUFFIXES
    )
    unreached = [p.relative_to(repo).as_posix() for p in library
                 if p not in reached]
    for path in unreached:
        print(path)
    if unreached:
        print(
            f"check_reachability: {len(unreached)} of {len(library)} src/ "
            f"files are reached from no root ({', '.join(ROOT_GLOBS)}); "
            "wire each into a tool or paper reproduction, or delete it",
            file=sys.stderr,
        )
        return 1
    print(f"check_reachability: {len(library)} of {len(library)} src/ "
          "files reachable")
    return 0


if __name__ == "__main__":
    sys.exit(main())
