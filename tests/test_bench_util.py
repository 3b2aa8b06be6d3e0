"""The benchmark trajectory appender (``benchmarks/bench_util.py``)."""

from __future__ import annotations

import json

from benchmarks import bench_util


def test_records_carry_an_environment_stamp_and_append_only_on_request(
        tmp_path, monkeypatch):
    artifact = tmp_path / "BENCH_demo.json"
    monkeypatch.delenv(bench_util.RECORD_ENV, raising=False)
    entry = bench_util.append_bench_record(artifact, "demo", {"time_s": 1.0})
    assert {"python", "cpus", "commit"} <= set(entry)
    assert entry["cpus"] >= 1
    assert not artifact.exists()

    monkeypatch.setenv(bench_util.RECORD_ENV, "1")
    appended = bench_util.append_bench_record(artifact, "demo", {"time_s": 2.0})
    assert json.loads(artifact.read_text()) == [appended]
    assert appended["seq"] == 1
