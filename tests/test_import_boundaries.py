"""Per-pair resources have one representation: dense tables.

The placement problem, the candidate filter, the compilation layer, the
registry and the solver backends hold capacity and demand as numpy tables. A
``ResourceVector`` enters only where fleet state is read (capacity tables)
and leaves only where placements are committed (allocations). This test
parses those modules and fails if any of them imports ``ResourceVector`` (or
its module) outside an ``if TYPE_CHECKING:`` block.
"""

from __future__ import annotations

import ast
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import repro.solver.backends

MODULES = ["repro.core.problem", "repro.core.filters", "repro.solver.compile",
           "repro.solver.registry", "repro.solver.backend"] + [
    f"repro.solver.backends.{info.name}"
    for info in pkgutil.iter_modules(repro.solver.backends.__path__)] + [
    "repro.solver.backends"]

RESOURCES = "repro.cluster.resources"


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or \
        (isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _runtime_imports(node: ast.AST):
    """Import statements under ``node``, skipping ``if TYPE_CHECKING:`` bodies."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.If) and _is_type_checking(child.test):
            for orelse in child.orelse:
                yield from _runtime_imports(orelse)
            continue
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        yield from _runtime_imports(child)


def _imports_resource_vector(stmt: ast.Import | ast.ImportFrom) -> bool:
    if isinstance(stmt, ast.Import):
        return any(alias.name == RESOURCES for alias in stmt.names)
    names = {alias.name for alias in stmt.names}
    if stmt.module == RESOURCES:
        return bool(names & {"ResourceVector", "*"})
    return stmt.module == "repro.cluster" and "resources" in names


def test_every_backend_module_is_checked():
    assert {"repro.solver.backends.heuristic", "repro.solver.backends.highs",
            "repro.solver.backends.lp_rounding"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_no_runtime_resource_vector_import(module):
    path = Path(importlib.util.find_spec(module).origin)
    tree = ast.parse(path.read_text(), filename=str(path))
    offending = [stmt.lineno for stmt in _runtime_imports(tree)
                 if _imports_resource_vector(stmt)]
    assert not offending, (
        f"{module} imports ResourceVector at line(s) {offending}: per-pair "
        "resources are dense tables here; import it under TYPE_CHECKING if "
        "only an annotation needs it")
