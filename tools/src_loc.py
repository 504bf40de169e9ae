#!/usr/bin/env python3
"""Count the code lines under src/, optionally against a git revision.

Usage:
    src_loc.py [--base REV] [--root DIR]

A code line is a non-blank line of a src/**/*.cpp or src/**/*.hpp file that
is not a // comment, not inside a /* */ block and not a preprocessor line
(#include, #pragma, ...). One definition, so "src/ shrank" means the same
thing in every change that claims it.

After the total it prints one line per module: each directory directly
under src/ (src/core, src/spf, ...), and each file that sits in src/
itself. With --base REV the script also counts REV's src/ tree, read
through `git ls-tree` and `git show` without a checkout, and prints the
delta of the total and of every module, so a refactor shows which
modules it shrank. When REV does not resolve (a shallow clone, say) it
prints only the current counts. The exit status is always 0: the number
is informational.
"""

import argparse
import pathlib
import subprocess
import sys

SUFFIXES = (".cpp", ".hpp")


def count_code_lines(text):
    """Code lines of one C++ source text (see the module docstring)."""
    count = 0
    in_block = False
    for line in text.splitlines():
        rest = ""
        i = 0
        while i < len(line):
            if in_block:
                end = line.find("*/", i)
                if end < 0:
                    i = len(line)
                else:
                    in_block = False
                    i = end + 2
                continue
            start = line.find("/*", i)
            if start < 0:
                rest += line[i:]
                break
            rest += line[i:start]
            in_block = True
            i = start + 2
        rest = rest.strip()
        if rest and not rest.startswith("//") and not rest.startswith("#"):
            count += 1
    return count


def module_of(name):
    """The module of a path relative to src/: its first component."""
    return "src/" + name.split("/", 1)[0]


def count_tree(root):
    """src/ code lines in the working tree, as {module: lines}."""
    src = pathlib.Path(root) / "src"
    modules = {}
    for p in sorted(src.rglob("*")):
        if p.is_file() and p.suffix in SUFFIXES:
            module = module_of(p.relative_to(src).as_posix())
            modules[module] = modules.get(module, 0) + count_code_lines(
                p.read_text(encoding="utf-8", errors="replace"))
    return modules


def git(root, *args):
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True).stdout


def count_rev(root, rev):
    """src/ code lines at `rev` as {module: lines}, or None when `rev`
    does not resolve."""
    try:
        git(root, "rev-parse", "--verify", "--quiet", rev + "^{commit}")
    except subprocess.CalledProcessError:
        return None
    names = git(root, "ls-tree", "-r", "--name-only", rev, "--",
                "src").decode().splitlines()
    modules = {}
    for name in names:
        if name.endswith(SUFFIXES):
            blob = git(root, "show", f"{rev}:{name}")
            module = module_of(name[len("src/"):])
            modules[module] = modules.get(module, 0) + count_code_lines(
                blob.decode("utf-8", errors="replace"))
    return modules


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision to compare against")
    parser.add_argument("--root", default=pathlib.Path(__file__).resolve()
                        .parent.parent, help="repository root")
    args = parser.parse_args()

    now = count_tree(args.root)
    base = None if args.base is None else count_rev(args.root, args.base)
    total = sum(now.values())
    if args.base is None:
        print(f"src code lines: {total}")
    elif base is None:
        print(f"src code lines: {total} (base {args.base} not found)")
    else:
        base_total = sum(base.values())
        print(f"src code lines: {base_total} at {args.base} -> {total} "
              f"({total - base_total:+d})")
    for module in sorted(set(now) | set(base or {})):
        lines = now.get(module, 0)
        if base is None:
            print(f"  {module}: {lines}")
        else:
            was = base.get(module, 0)
            print(f"  {module}: {was} -> {lines} ({lines - was:+d})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
