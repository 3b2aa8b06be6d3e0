"""Packaging metadata: ``setup.py`` must list every package under ``src/repro``."""

from distutils.core import run_setup
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_setup_lists_every_package(monkeypatch):
    # ``stop_after="init"`` parses the metadata and runs no command, so no
    # egg-info or build directory is written.
    monkeypatch.chdir(ROOT)
    packages = set(run_setup("setup.py", stop_after="init").packages)
    src = ROOT / "src"
    on_disk = {".".join(d.relative_to(src).parts)
               for d in (src / "repro").rglob("*") if d.is_dir() and any(d.glob("*.py"))}
    assert {"repro", "repro.solver.backends"} <= packages
    assert on_disk <= packages
