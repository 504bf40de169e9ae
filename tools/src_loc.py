#!/usr/bin/env python3
"""Count the code lines under src/, optionally against a git revision.

Usage:
    src_loc.py [--base REV] [--root DIR]

A code line is a non-blank line of a src/**/*.cpp or src/**/*.hpp file that
is not a // comment, not inside a /* */ block and not a preprocessor line
(#include, #pragma, ...). One definition, so "src/ shrank" means the same
thing in every change that claims it.

With --base REV the script also counts REV's src/ tree, read through
`git ls-tree` and `git show` without a checkout, and prints the delta.
When REV does not resolve (a shallow clone, say) it prints only the
current count. The exit status is always 0: the number is informational.
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


def count_tree(root):
    src = pathlib.Path(root) / "src"
    return sum(
        count_code_lines(p.read_text(encoding="utf-8", errors="replace"))
        for p in sorted(src.rglob("*"))
        if p.is_file() and p.suffix in SUFFIXES)


def git(root, *args):
    return subprocess.run(["git", "-C", str(root), *args], check=True,
                          capture_output=True).stdout


def count_rev(root, rev):
    """src/ code lines at `rev`, or None when `rev` does not resolve."""
    try:
        git(root, "rev-parse", "--verify", "--quiet", rev + "^{commit}")
    except subprocess.CalledProcessError:
        return None
    names = git(root, "ls-tree", "-r", "--name-only", rev, "--",
                "src").decode().splitlines()
    total = 0
    for name in names:
        if name.endswith(SUFFIXES):
            blob = git(root, "show", f"{rev}:{name}")
            total += count_code_lines(blob.decode("utf-8", errors="replace"))
    return total


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", help="git revision to compare against")
    parser.add_argument("--root", default=pathlib.Path(__file__).resolve()
                        .parent.parent, help="repository root")
    args = parser.parse_args()

    now = count_tree(args.root)
    if args.base is None:
        print(f"src code lines: {now}")
        return 0
    base = count_rev(args.root, args.base)
    if base is None:
        print(f"src code lines: {now} (base {args.base} not found)")
        return 0
    print(f"src code lines: {base} at {args.base} -> {now} "
          f"({now - base:+d})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
