#!/usr/bin/env python3
"""Ceiling on `pub fn`s that only tests call.

Lists each `pub fn` in crates/*/src whose name appears in no code outside
test modules: not in crates/*/src (its own definition aside) and not in
benchmark/src. Code under `tests/`, a file's `#[cfg(test)] mod tests`,
comments and doc links do not count as callers. The match is by name, so
a function that shares its name with any used item passes; the check can
miss a test-only function but never flags a called one.

The count may only fall: a change that removes some lowers CEILING. A
function listed here either gains a caller an experiment needs, goes with
its tests, or is one of the few kept on purpose (docs/CI.md says which).
"""

import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
CEILING = 15

PUB_FN = re.compile(r"^\s*pub\s+(?:const\s+)?fn\s+([A-Za-z_][A-Za-z0-9_]*)")
TEST_MOD = re.compile(r"^\s*mod\s+tests\b")
IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def strip_comments(text):
    """The text with `//` and `/* */` comments blanked and strings kept."""
    out, i, n = [], 0, len(text)
    while i < n:
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            i = n if j < 0 else j + 2
        elif text[i] == '"':
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append(text[i : j + 1])
            i = j + 1
        else:
            out.append(text[i])
            i += 1
    return "".join(out)


def non_test_lines(path):
    """The file's lines before its `#[cfg(test)] mod tests`."""
    lines = path.read_text().splitlines()
    for i, line in enumerate(lines[:-1]):
        if line.strip() == "#[cfg(test)]" and TEST_MOD.match(lines[i + 1]):
            return lines[:i]
    return lines


def main():
    sources = sorted(REPO.glob("crates/*/src/**/*.rs"))
    defined = {}  # name -> [(path, line number)]
    uses = {}  # name -> count of occurrences in non-test code
    for path in sources + sorted(REPO.glob("benchmark/src/**/*.rs")):
        lines = non_test_lines(path)
        if path in sources:
            for n, line in enumerate(lines, 1):
                m = PUB_FN.match(line)
                if m:
                    defined.setdefault(m.group(1), []).append((path.relative_to(REPO), n))
        for name in IDENT.findall(strip_comments("\n".join(lines))):
            uses[name] = uses.get(name, 0) + 1
    test_only = sorted(
        (str(path), n, name)
        for name, sites in defined.items()
        if uses.get(name, 0) <= len(sites)
        for path, n in sites
    )
    for path, n, name in test_only:
        print(f"{path}:{n}: pub fn {name}")
    print(f"pub fns only tests call: {len(test_only)} (ceiling {CEILING})")
    if len(test_only) > CEILING:
        sys.exit(f"test-only pub fns rose above {CEILING}: give each a caller or delete it")


if __name__ == "__main__":
    main()
