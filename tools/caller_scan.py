#!/usr/bin/env python3
"""List src/ functions that almost nothing outside tests/ calls.

Usage:
    python3 tools/caller_scan.py

The caller scan behind the rule "a capability whose only caller is its
own test goes". The script collects every function name declared in a
src/**/*.hpp header, then counts the name's whole-word occurrences in the
code of src/, bench/, examples/, perfbench/ and tools/ (*.cpp, *.hpp,
*.py), with // and /* */ comments stripped. A name with at most MAX_REFS
occurrences (2: a declaration and a definition) is printed with that
count, its count in tests/ and the header that declares it.

The list is a candidate list, not a verdict. A count of 2 may be a
declaration plus one real caller (an inline helper), and a name shared by
unrelated functions hides behind the other's callers. Confirm each
candidate with

    grep -rnw NAME src bench examples perfbench tools

before deleting it, and record what stays and why in ROADMAP.md. The
exit status is always 0.
"""

import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
CODE_DIRS = ("src", "bench", "examples", "perfbench", "tools")
MAX_REFS = 2
SUFFIXES = (".cpp", ".hpp", ".py")
DECL = re.compile(
    r"^\s*(?:(?:static|virtual|inline|constexpr|explicit|friend|"
    r"\[\[nodiscard\]\])\s+)*[\w:<>,\s*&]+?[\s*&](\w+)\s*\(",
    re.M)
NOT_NAMES = {"if", "for", "while", "switch", "return", "sizeof", "operator",
             "static_assert", "require", "RBPC_ASSERT"}


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", "", text, flags=re.S)
    return re.sub(r"//[^\n]*", "", text)


def read_code(dirs):
    texts = []
    for d in dirs:
        for path in sorted((ROOT / d).rglob("*")):
            if path.suffix in SUFFIXES and path.is_file():
                texts.append(strip_comments(path.read_text(errors="replace")))
    return "\n".join(texts)


def main():
    declared = collections.defaultdict(set)
    for header in sorted((ROOT / "src").rglob("*.hpp")):
        for m in DECL.finditer(strip_comments(header.read_text())):
            if m.group(1) not in NOT_NAMES:
                declared[m.group(1)].add(str(header.relative_to(ROOT)))

    code = read_code(CODE_DIRS)
    tests = read_code(("tests",))
    for name in sorted(declared):
        word = re.compile(r"\b" + re.escape(name) + r"\b")
        refs = len(word.findall(code))
        if refs <= MAX_REFS:
            print(f"{name}: {refs} outside tests, {len(word.findall(tests))} "
                  f"in tests ({', '.join(sorted(declared[name]))})")


if __name__ == "__main__":
    main()
