"""The package does not depend on test-only libraries, nor define
test-only code.

``src/repro`` is what jobs, benchmarks and Spark tasks import; test
oracles, drivers and fixtures live under ``tests/``.  Every module is
parsed (not imported), so the check needs none of the libraries it
names.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
TEST_ONLY = {"duckdb", "pytest", "hypothesis"}
# Stream drivers that only tests call; they live in ``tests/core/util.py``.
TEST_ONLY_NAMES = {"evaluate_stream", "mcos_stream"}


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
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name in TEST_ONLY_NAMES
    }
    assert defined == set()
