#!/usr/bin/env python3
"""Fixture-tracking gate: every fixture the test suite opens must be
tracked by git, so an ignore rule can never silently keep one out of a
commit (a fresh clone would then fail the test that reads it).

Usage:
    check_fixtures.py SOURCE_DIR

Fixtures are
  * every tests/**/golden_* (test sources aside) and
    tests/**/*.manifest.json file, and
  * every path a test source names through CAVENET_SOURCE_DIR (or a
    variable initialised from it) or CAVENET_SPEC_DIR (examples/specs),
    whether or not the file exists in this checkout.

Each is checked with `git ls-files --error-unmatch`. Exit codes: 0 all
tracked, 1 some fixture untracked or missing, 77 skipped (SOURCE_DIR is
not a git work tree, or git is not installed).
"""

import pathlib
import re
import subprocess
import sys

SKIP = 77

# Macro (or variable holding it) -> directory it names, relative to the
# source root; mirrors the target_compile_definitions in
# tests/CMakeLists.txt.
ROOTS = {"CAVENET_SOURCE_DIR": "", "kSourceDir": "",
         "CAVENET_SPEC_DIR": "examples/specs"}
PATH_LITERAL = re.compile(
    r'\b(' + "|".join(ROOTS) + r')\)?\s*\+?\s*"(/[^"]+)"')


def git(source, *args):
    return subprocess.run(["git", "-C", str(source), *args],
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True)


def fixtures(source):
    tests = source / "tests"
    found = set()
    for pattern in ("golden_*", "*.manifest.json"):
        found.update(p.relative_to(source) for p in tests.rglob(pattern)
                     if p.is_file() and p.suffix not in (".cpp", ".h"))
    for test_source in tests.rglob("*.cpp"):
        for macro, path in PATH_LITERAL.findall(test_source.read_text()):
            found.add(pathlib.Path(ROOTS[macro]) / path.lstrip("/"))
    return sorted(found)


def main():
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    source = pathlib.Path(sys.argv[1]).resolve()
    try:
        inside = git(source, "rev-parse", "--is-inside-work-tree")
    except OSError:
        print("check_fixtures: git not installed; skipping")
        return SKIP
    if inside.returncode != 0 or inside.stdout.strip() != "true":
        print(f"check_fixtures: {source} is not a git work tree; skipping")
        return SKIP

    untracked = []
    paths = fixtures(source)
    for path in paths:
        if git(source, "ls-files", "--error-unmatch", "--",
               str(path)).returncode != 0:
            untracked.append(path)
    for path in paths:
        print(f"  {'UNTRACKED' if path in untracked else 'tracked  '} {path}")
    if untracked:
        print(f"\n{len(untracked)} fixture(s) not tracked by git — check "
              ".gitignore and `git add` them.")
        return 1
    print(f"\nall {len(paths)} fixtures tracked.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
