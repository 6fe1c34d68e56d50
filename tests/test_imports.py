"""The package does not depend on test-only libraries, nor define
test-only code.

``src/repro`` is what jobs, benchmarks and Spark tasks import; test
oracles, drivers and fixtures live under ``tests/``.  Every module is
parsed (not imported), so the check needs none of the libraries it
names.
"""
from __future__ import annotations

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
# The code that runs the package: the package itself, the Spark jobs
# and the benchmark.
CALLERS = (SRC, ROOT / "jobs", ROOT / "perfbench")
TEST_ONLY = {"duckdb", "pytest", "hypothesis"}
# Definitions that only tests reach; they live in ``tests/core/util.py``
# (stream drivers and oracle helpers) or are gone.
TEST_ONLY_NAMES = {
    "evaluate_stream", "mcos_stream", "satisfied_states", "validity_threshold", "n_spawned",
    "query_labels",
}
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _imported_roots(path: Path) -> set[str]:
    roots = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_src_imports_no_test_only_library():
    modules = sorted(SRC.rglob("*.py"))
    assert len(modules) > 10, f"no package found at {SRC}"
    offenders = {
        str(p.relative_to(SRC)): sorted(_imported_roots(p) & TEST_ONLY) for p in modules
    }
    assert {m: libs for m, libs in offenders.items() if libs} == {}


def test_src_defines_no_test_only_name():
    defined = {
        (str(p.relative_to(SRC)), node.name)
        for p in sorted(SRC.rglob("*.py"))
        for node in ast.walk(ast.parse(p.read_text(), filename=str(p)))
        if isinstance(node, DEFS) and node.name in TEST_ONLY_NAMES
    }
    assert defined == set()


def _names(node: ast.AST) -> Counter:
    """Every identifier ``node`` names: read names, attributes, imported
    names and defined names.  A definition names its overrides, which
    are reached through its callers."""
    out: Counter = Counter()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out[n.id] += 1
        elif isinstance(n, ast.Attribute):
            out[n.attr] += 1
        elif isinstance(n, ast.alias):
            out[n.name.rsplit(".", 1)[-1]] += 1
        elif isinstance(n, DEFS):
            out[n.name] += 1
    return out


def test_src_defines_nothing_only_tests_reach():
    """Every function, method and class defined in ``src/repro``
    (dunders exempt) is named in ``src/repro``, ``jobs/`` or
    ``perfbench/`` outside its own definition."""
    trees = {p: ast.parse(p.read_text(), filename=str(p))
             for root in CALLERS for p in sorted(root.rglob("*.py"))}
    named = sum((_names(t) for t in trees.values()), Counter())
    unreached = {
        (str(p.relative_to(SRC)), node.name)
        for p, tree in trees.items() if p.is_relative_to(SRC)
        for node in ast.walk(tree)
        if isinstance(node, DEFS) and not node.name.startswith("__")
        and named[node.name] == _names(node)[node.name]
    }
    assert unreached == set()
