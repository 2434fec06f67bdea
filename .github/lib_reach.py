#!/usr/bin/env python3
"""Fail when a lib/ module is reachable only from test/.

Walks the module graph (`ocamlfind ocamldep -modules`) from every source
under bin/, bench/, examples/ and perfbench/ through lib/. A lib module
the walk never reaches is code that no command, experiment or benchmark
runs: wire it into one, or delete it with its unit tests.

Run from the repository root:  python3 .github/lib_reach.py
"""

import os
import shutil
import subprocess
import sys

ROOTS = ["bin", "bench", "examples", "perfbench"]


def sources(top):
    for path, dirs, files in os.walk(top):
        dirs[:] = sorted(d for d in dirs if d != "_build" and not d.startswith("."))
        for f in sorted(files):
            if f.endswith((".ml", ".mli")):
                yield os.path.join(path, f)


def module_of(path):
    return os.path.splitext(os.path.basename(path))[0].capitalize()


def dependencies(files):
    """{file: [module names it mentions]}"""
    tool = ["ocamlfind", "ocamldep"] if shutil.which("ocamlfind") else ["ocamldep"]
    out = subprocess.run(tool + ["-modules"] + files, check=True,
                         capture_output=True, text=True).stdout
    deps = {}
    for line in out.splitlines():
        path, _, mods = line.partition(":")
        deps[path.strip()] = mods.split()
    return deps


def reach(start, lib_deps):
    seen, todo = set(), [m for m in start if m in lib_deps]
    while todo:
        m = todo.pop()
        if m not in seen:
            seen.add(m)
            todo.extend(d for d in lib_deps[m] if d in lib_deps and d not in seen)
    return seen


def main():
    lib_files = list(sources("lib"))
    root_files = [f for top in ROOTS for f in sources(top)]
    test_files = list(sources("test"))
    deps = dependencies(lib_files + root_files + test_files)
    lib_deps = {}
    for f in lib_files:
        lib_deps.setdefault(module_of(f), set()).update(deps[f])
    reached = reach({m for f in root_files for m in deps[f]}, lib_deps)
    by_tests = reach({m for f in test_files for m in deps[f]}, lib_deps)
    unreached = sorted(set(lib_deps) - reached)
    for m in unreached:
        how = "only from test/" if m in by_tests else "from nowhere"
        print(f"error: {m} is reachable {how}: wire it into a command or delete it")
    print(f"{len(reached)} of {len(lib_deps)} lib modules reached from {', '.join(ROOTS)}")
    return 1 if unreached else 0


if __name__ == "__main__":
    sys.exit(main())
