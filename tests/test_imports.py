"""The package does not depend on test-only libraries, nor define
test-only code, nor import names it never reads.

``src/repro`` is what jobs, benchmarks and Spark tasks import; test
oracles, drivers and fixtures live under ``tests/``.  Every module is
parsed (not imported), so the check needs none of the libraries it
names.
"""
from __future__ import annotations

import ast
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


def _names(node: ast.AST, inside: frozenset[str] = frozenset()) -> set[str]:
    """Every identifier ``node`` names (read names, attributes and
    imported names) outside a definition of the same name: an
    override's ``super().name()`` and a recursive call do not reach
    ``name``, while a definition's callers reach its overrides too."""
    if isinstance(node, DEFS):
        inside |= {node.name}
    if isinstance(node, ast.Name):
        name = node.id
    elif isinstance(node, ast.Attribute):
        name = node.attr
    elif isinstance(node, ast.alias):
        name = node.name.rsplit(".", 1)[-1]
    else:
        name = None
    out = {name} if name is not None and name not in inside else set()
    for child in ast.iter_child_nodes(node):
        out |= _names(child, inside)
    return out


def test_src_defines_nothing_only_tests_reach():
    """Every function, method and class defined in ``src/repro``
    (dunders exempt) is named in ``src/repro``, ``jobs/`` or
    ``perfbench/`` outside every definition of its name."""
    trees = {p: ast.parse(p.read_text(), filename=str(p))
             for root in CALLERS for p in sorted(root.rglob("*.py"))}
    named = set().union(*map(_names, trees.values()))
    unreached = {
        (str(p.relative_to(SRC)), node.name)
        for p, tree in trees.items() if p.is_relative_to(SRC)
        for node in ast.walk(tree)
        if isinstance(node, DEFS) and not node.name.startswith("__") and node.name not in named
    }
    assert unreached == set()


def _unread_imports(tree: ast.Module) -> set[str]:
    """Names ``tree`` imports but never reads (``from __future__`` exempt)."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(a.asname or a.name for a in node.names)
    read = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return bound - read


def test_src_imports_nothing_unread():
    unread = {
        (str(p.relative_to(SRC)), name)
        for p in sorted(SRC.rglob("*.py"))
        for name in _unread_imports(ast.parse(p.read_text(), filename=str(p)))
    }
    assert unread == set()
