"""Shared helpers for the benchmark harness artifacts.

A benchmark run with ``BENCH_RECORD=1`` appends its measurements to a
repo-root JSON trajectory file (``BENCH_*.json``) so timing history survives
across runs; without it (every plain test run) the tracked files are left
alone and the worktree stays clean. The appenders
used to be copy-pasted per file with drifting conventions (some records
carried a ``benchmark`` name, some not; none carried an ordering key);
:func:`append_bench_record` is the single shared implementation. Every entry
it writes carries the ``benchmark`` name and a monotone ``seq`` number
(1 + the highest existing ``seq`` in the file), so consumers can name and
order records without guessing from field shapes, plus an environment stamp
(:func:`environment_stamp`: interpreter version, core count and commit) so a
number can be traced to what produced it. Pre-existing entries are
left exactly as they are — the PR 4 era baseline detection in
``test_bench_cdn_pipeline`` depends on old records *not* having these fields.
"""

from __future__ import annotations

import json
import os
import platform
import resource
import subprocess
from pathlib import Path

#: Environment variable that opts a run into appending to the trajectory
#: files (value ``1``); the benchmark CI job sets it and uploads the file.
RECORD_ENV = "BENCH_RECORD"


def peak_rss_mb() -> float:
    """Process peak RSS in MB (``ru_maxrss`` is KiB on Linux)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def environment_stamp() -> dict:
    """``python`` version, ``cpus`` (``os.cpu_count()``) and the short
    ``commit`` hash of the checkout (``None`` outside a git checkout)."""
    try:
        result = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], capture_output=True,
            text=True, check=True, cwd=Path(__file__).resolve().parent)
    except (OSError, subprocess.CalledProcessError):
        commit = None
    else:
        commit = result.stdout.strip() or None
    return {"python": platform.python_version(), "cpus": os.cpu_count(),
            "commit": commit}


def load_bench_history(artifact: Path) -> list:
    """The artifact's record list (empty when missing or unparsable)."""
    if not artifact.exists():
        return []
    try:
        history = json.loads(artifact.read_text())
    except (ValueError, OSError):
        return []
    return history if isinstance(history, list) else []


def append_bench_record(artifact: Path, benchmark: str, record: dict,
                        sort_keys: bool = False) -> dict:
    """Append one named, sequence-numbered record to a trajectory artifact
    when :data:`RECORD_ENV` is ``1``; otherwise only build the entry.

    Parameters
    ----------
    artifact:
        The ``BENCH_*.json`` file (created when missing).
    benchmark:
        Benchmark name stamped on the entry (callers must not put their own
        ``benchmark`` key in ``record``).
    record:
        The measurement payload.
    sort_keys:
        Serialise with sorted keys (``BENCH_serving.json``'s convention).

    Returns the entry (with its assigned ``seq`` and the
    :func:`environment_stamp`), appended or not.
    """
    if "benchmark" in record or "seq" in record:
        raise ValueError(
            "record must not carry its own 'benchmark'/'seq' keys; "
            "they are assigned here")
    history = load_bench_history(artifact)
    seq = 1 + max((int(r.get("seq", 0)) for r in history if isinstance(r, dict)),
                  default=0)
    entry = {"benchmark": benchmark, "seq": seq, **record, **environment_stamp()}
    if os.environ.get(RECORD_ENV) == "1":
        history.append(entry)
        artifact.write_text(json.dumps(history, indent=2, sort_keys=sort_keys) + "\n")
    return entry
