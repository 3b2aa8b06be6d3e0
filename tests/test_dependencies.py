"""Every import resolves to the stdlib, a distribution ``setup.py`` declares,
or a module of this repo.

An import of an undeclared package passes wherever that package happens to be
installed and fails in an environment that installs only what ``setup.py``
declares (as CI does), so the check reads the declared names rather than
trying the imports.
"""

import ast
import importlib.metadata
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = ("src", "tests", "benchmarks", "examples")

#: Import names a declared distribution provides without listing them in its
#: metadata: setuptools supplies ``distutils`` from Python 3.12 on, where the
#: stdlib no longer does.
PROVIDED_BY = {"distutils": "setuptools"}


def _normalise(name: str) -> str:
    return re.sub(r"[-_.]+", "-", name).lower()


def _declared_distributions() -> set[str]:
    """``install_requires`` plus the ``test`` extra of setup.py's ``setup()``."""
    tree = ast.parse((ROOT / "setup.py").read_text(encoding="utf-8"))
    call = next(node for node in ast.walk(tree) if isinstance(node, ast.Call)
                and getattr(node.func, "id", None) == "setup")
    kwargs = {kw.arg: kw.value for kw in call.keywords}
    requirements = ast.literal_eval(kwargs["install_requires"]) \
        + ast.literal_eval(kwargs["extras_require"])["test"]
    return {_normalise(re.match(r"[A-Za-z0-9._-]+", r).group()) for r in requirements}


def _imports(path: Path):
    """(line, top-level name) of every absolute import in a file, imports
    inside functions included."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def _repo_modules() -> set[str]:
    """Top-level names this repo provides: the packages under ``src/`` and
    the root directories holding Python files (``tests``, ``benchmarks``...)."""
    return {p.name for p in (ROOT / "src").iterdir()} | {
        p.name for p in ROOT.iterdir() if p.is_dir() and any(p.glob("*.py"))}


def undeclared_imports(paths, declared: set[str], repo_modules: set[str]) -> list[str]:
    """``path:line: name`` of every import in ``paths`` that is neither
    stdlib, a module of this repo or a sibling file, nor provided by one of
    the ``declared`` distributions."""
    providers = importlib.metadata.packages_distributions()
    undeclared = []
    for path in paths:
        local = repo_modules | {p.stem for p in path.parent.glob("*.py")}
        for line, name in _imports(path):
            if name in sys.stdlib_module_names or name in local:
                continue
            dists = {_normalise(d) for d in providers.get(name, ())}
            if name in PROVIDED_BY:
                dists.add(PROVIDED_BY[name])
            if not dists & declared:
                shown = path.relative_to(ROOT) if path.is_relative_to(ROOT) else path
                undeclared.append(f"{shown}:{line}: {name}")
    return undeclared


@pytest.mark.parametrize("top", SCANNED)
def test_every_import_is_declared(top):
    undeclared = undeclared_imports(sorted((ROOT / top).rglob("*.py")),
                                    _declared_distributions(), _repo_modules())
    assert not undeclared, \
        "imports of packages setup.py does not declare:\n" + "\n".join(undeclared)


def test_declared_distributions_are_the_runtime_and_test_requirements():
    assert _declared_distributions() == {
        "numpy", "scipy", "pytest", "pytest-benchmark", "hypothesis", "setuptools"}


def test_guard_flags_an_undeclared_import_inside_a_function(tmp_path):
    module = tmp_path / "module.py"
    module.write_text("import numpy\n\n\ndef view():\n    import networkx as nx\n"
                      "    return nx.Graph()\n", encoding="utf-8")
    assert undeclared_imports([module], {"numpy"}, set()) == \
        [f"{module}:5: networkx"]


def test_guard_passes_stdlib_repo_sibling_and_relative_imports(tmp_path):
    (tmp_path / "helpers.py").write_text("", encoding="utf-8")
    module = tmp_path / "module.py"
    module.write_text("import json\nfrom os import path\nfrom repro.core import solution\n"
                      "import helpers\nfrom . import sibling\nfrom .. import parent\n",
                      encoding="utf-8")
    assert undeclared_imports([module], set(), {"repro"}) == []
