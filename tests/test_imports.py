"""The package does not depend on test-only libraries.

``src/repro`` is what jobs, benchmarks and Spark tasks import; test
oracles and fixtures live under ``tests/``.  Every module is parsed
(not imported), so the check needs none of the libraries it names.
"""
from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "repro"
TEST_ONLY = {"duckdb", "pytest", "hypothesis"}


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
