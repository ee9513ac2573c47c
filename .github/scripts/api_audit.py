"""Audits the library crates' public surface against what the program calls.

Prints every `pub fn` in `crates/*/src` (outside `src/bin`) whose name, as
a whole word, appears on no non-test line other than its own definition,
then the count of non-test Rust lines in `crates/`, `src/` and
`examples/`. Test code is anything under a `tests/` or `benches/`
directory and every inline `#[cfg(test)] mod name { ... }` block;
`vendor/`, `perfbench/` and build output are skipped for the count but
`perfbench/` counts as a caller.

Run from the repository root: `python3 .github/scripts/api_audit.py`.
"""
import os
import re

SKIP = {"target", "vendor", ".bench_build", ".git", "out"}
TEST_MOD = re.compile(r"\s*(pub(\(crate\))?\s+)?mod\s+\w+\s*\{")


def non_test_lines(path):
    """The file's lines, with each `#[cfg(test)] mod x { ... }` blanked."""
    lines = open(path, encoding="utf-8").read().split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    i = 0
    while i < len(lines):
        if lines[i].strip() == "#[cfg(test)]" and i + 1 < len(lines) and TEST_MOD.match(lines[i + 1]):
            depth, j = 0, i + 1
            while j < len(lines):
                depth += lines[j].count("{") - lines[j].count("}")
                if depth <= 0:
                    break
                j += 1
            lines[i : j + 1] = [None] * (j + 1 - i)
            i = j + 1
        else:
            i += 1
    return lines


sources = {}
for top, dirs, files in os.walk("."):
    dirs[:] = [d for d in dirs if d not in SKIP]
    parts = top.split(os.sep)
    if "tests" in parts or "benches" in parts:
        continue
    for f in files:
        if f.endswith(".rs"):
            path = os.path.normpath(os.path.join(top, f))
            sources[path] = non_test_lines(path)

defs = []
for path, lines in sources.items():
    if re.match(r"crates/[^/]+/src/", path) and "/src/bin/" not in path:
        for n, line in enumerate(lines):
            m = line and re.match(r"\s*pub fn (\w+)", line)
            if m:
                defs.append((path, n, m.group(1)))


def referenced(name, at):
    word = re.compile(r"\b" + re.escape(name) + r"\b")
    return any(
        line and (path, n) != at and word.search(line)
        for path, lines in sources.items()
        for n, line in enumerate(lines)
    )


unused = [(p, n + 1, name) for p, n, name in defs if not referenced(name, (p, n))]
print(f"{len(unused)} of {len(defs)} pub fns are reached only from test code:")
for p, n, name in sorted(unused):
    print(f"  {p}:{n} {name}")
counted = sum(
    sum(1 for line in lines if line is not None)
    for path, lines in sources.items()
    if path.split(os.sep)[0] in ("crates", "src", "examples")
)
print(f"{counted} non-test Rust lines in crates/, src/ and examples/")
