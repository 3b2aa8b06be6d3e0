"""Behavioral tests of the live serving loop, its metrics, and the CLI.

Replay parity is covered by tests/test_serving_parity.py; here the live mode:
arrivals batch and place, departures release fleet capacity, the rolling
horizon warm re-solves, the soak bounds hold, the metrics artifact round-trips
through JSON, and ``carbon-edge serve`` wires it all up (including the
non-zero exit of a failed parity check).
"""

from __future__ import annotations

import json

import pytest

from repro.cli import carbon_edge_main
from repro.serving.loadgen import LoadGenerator
from repro.serving.metrics import SERVING_METRICS_VERSION, ServingMetrics
from repro.serving.service import PlacementService, ServingConfig
from repro.simulator.cdn import clear_substrate_cache
from repro.simulator.scenario import CDNScenario


@pytest.fixture(scope="module")
def scenario() -> CDNScenario:
    return CDNScenario(continent="EU", max_sites=5, seed=9)


def _run(scenario, duration_s=3 * 3600.0, max_events=None, *,
         rate_per_s=0.01, mean_lifetime_s=3600.0, seed=21,
         batch_interval_s=600.0, resolve_interval_s=3600.0):
    service = PlacementService.from_scenario(
        scenario, config=ServingConfig(batch_interval_s=batch_interval_s,
                                       resolve_interval_s=resolve_interval_s))
    load = LoadGenerator(sites=service.simulator.fleet.sites(),
                         rate_per_s=rate_per_s,
                         mean_lifetime_s=mean_lifetime_s, seed=seed)
    report = service.run_live(load, duration_s=duration_s,
                              max_events=max_events)
    return service, load, report


def test_live_loop_places_arrivals_and_counts_events(scenario):
    service, load, report = _run(scenario)
    m = report.metrics
    stream = load.events(3 * 3600.0)
    assert m.n_arrivals == sum(1 for e in stream if e.kind == "arrival")
    assert m.n_departures == sum(1 for e in stream if e.kind == "departure")
    assert m.n_batch_solves > 0
    assert m.n_warm_resolves > 0  # the 3 h run crosses re-solve ticks
    assert m.total_placed() > 0
    assert m.total_requests > 0 and m.carbon_per_request_g() > 0
    # Ticks are part of the processed-event count.
    assert m.n_events >= len(stream)


def test_departures_release_fleet_capacity(scenario):
    """No departed application may still hold an allocation after the run."""
    service, load, report = _run(scenario, mean_lifetime_s=900.0, seed=5)
    departed = {e.payload for e in load.events(3 * 3600.0)
                if e.kind == "departure"}
    assert departed  # the short lifetimes guarantee departures fired
    allocated = {app_id for server in service.simulator.fleet.servers()
                 for app_id in server.allocations}
    assert not allocated & departed
    assert report.metrics.n_departures == len(departed)


def test_max_events_bounds_the_soak(scenario):
    _service, _load, report = _run(scenario, max_events=10)
    assert report.metrics.n_events == 10


def test_run_live_rejects_non_positive_duration(scenario):
    service = PlacementService.from_scenario(scenario)
    load = LoadGenerator(sites=service.simulator.fleet.sites())
    with pytest.raises(ValueError, match="duration_s"):
        service.run_live(load, duration_s=0.0)


def test_serving_config_validation():
    with pytest.raises(ValueError, match="batch_interval_s"):
        ServingConfig(batch_interval_s=0.0)
    with pytest.raises(ValueError, match="resolve_interval_s"):
        ServingConfig(resolve_interval_s=-1.0)
    with pytest.raises(ValueError, match="start_hour"):
        ServingConfig(start_hour=8760)
    with pytest.raises(ValueError, match="horizon_hours"):
        ServingConfig(horizon_hours=0.0)


def test_load_generator_validation():
    with pytest.raises(ValueError, match="at least one site"):
        LoadGenerator(sites=[])
    with pytest.raises(ValueError, match="shape"):
        LoadGenerator(sites=["a"], shape="square")
    with pytest.raises(ValueError, match="rate_per_s"):
        LoadGenerator(sites=["a"], rate_per_s=0.0)
    with pytest.raises(ValueError, match="align"):
        LoadGenerator(sites=["a", "b"], site_weights=[1.0])
    with pytest.raises(ValueError, match="burst_duration_s"):
        LoadGenerator(sites=["a"], burst_duration_s=7200.0,
                      burst_period_s=3600.0)


def test_expected_arrivals_matches_the_homogeneous_rate():
    load = LoadGenerator(sites=["a"], rate_per_s=0.02)
    assert load.expected_arrivals(10_000.0) == pytest.approx(200.0, rel=0.01)


def test_metrics_artifact_round_trips(tmp_path, scenario):
    _service, _load, report = _run(scenario)
    m = report.metrics
    path = m.write(tmp_path / "nested" / "serving_metrics.json",
                   include_decisions=True)
    artifact = json.loads(path.read_text())
    assert artifact["version"] == SERVING_METRICS_VERSION
    assert artifact["decision_digest"] == m.decision_digest()
    assert artifact["counters"]["placements"] == m.total_placed()
    assert artifact["counters"]["warm_resolves"] == m.n_warm_resolves
    assert artifact["latency_ms"]["p99"] >= artifact["latency_ms"]["p50"] >= 0
    assert artifact["throughput"]["placements_per_s"] > 0
    assert artifact["feed"]["samples"] == {"live": m.feed_samples["live"]}
    assert artifact["decisions"] == json.loads(m.canonical_decision_log())


def test_live_arrivals_share_scenario_classes(scenario):
    """Each live arrival draws its own lifetime, yet the scenario tier
    registers one class per (site, workload, rate, SLO) of the stream."""
    clear_substrate_cache()
    service, load, _report = _run(scenario)
    arrivals = [e.payload for e in load.events(3 * 3600.0)
                if e.kind == "arrival"]
    keys = {(a.source_site, a.workload, a.request_rate_rps, a.latency_slo_ms)
            for a in arrivals}
    assert len({a.duration_hours for a in arrivals}) > len(keys)
    stats = service.simulator.scenario_compilation().cache_stats()
    assert stats["n_classes"] == len(keys)
    clear_substrate_cache()


def test_empty_metrics_are_well_defined():
    m = ServingMetrics()
    m.finish()
    assert m.latency_percentile_ms(99.0) == 0.0
    assert m.placements_per_s() == 0.0
    assert m.carbon_per_request_g() == 0.0
    artifact = m.to_artifact()
    assert artifact["counters"]["decisions"] == 0


# -- decision latencies ---------------------------------------------------------


class _StubProblem:
    n_applications = 0
    servers = ()


class _StubSolution:
    problem = _StubProblem()
    placements = {}
    n_placed = 0

    @staticmethod
    def total_carbon_g():
        return 0.0


def test_serving_metrics_percentiles_are_exact_per_kind():
    """Percentiles read every decision's latency, overall and per kind."""
    import numpy as np

    m = ServingMetrics()
    stream = [("batch" if k % 3 else "resolve", (k * 7) % 101 / 1000.0)
              for k in range(500)]
    for k, (kind, latency_s) in enumerate(stream):
        m.record_decision(kind, time_s=float(k), hour=0,
                          solution=_StubSolution(), latency_s=latency_s)
    m.finish()
    for kind in (None, "batch", "resolve"):
        values = [v for recorded, v in stream if kind in (None, recorded)]
        assert m.decision_latencies_s(kind).tolist() == values
        for q in (50.0, 99.0):
            assert m.latency_percentile_ms(q, kind) == \
                float(np.percentile(values, q) * 1000.0)
    assert set(m.to_artifact()["latency_ms"]) == {
        "p50", "p99", "p50_resolve", "p99_resolve"}


def _metrics(stream) -> ServingMetrics:
    m = ServingMetrics()
    for k, (kind, latency_s) in enumerate(stream):
        m.record_decision(kind, time_s=float(k), hour=k // 3,
                          solution=_StubSolution(), latency_s=latency_s)
    m.finish()
    return m


def test_decision_digest_ignores_wall_clock_latencies():
    """Two runs deciding the same things at different speeds share their
    canonical log and digest, while their latency telemetry differs."""
    fast = _metrics([("batch", 0.001), ("resolve", 0.002), ("batch", 0.003)])
    slow = _metrics([("batch", 0.5), ("resolve", 0.25), ("batch", 0.125)])
    assert "latency" not in fast.canonical_decision_log()
    assert fast.canonical_decision_log() == slow.canonical_decision_log()
    assert fast.decision_digest() == slow.decision_digest()
    assert fast.to_artifact()["decision_digest"] == fast.decision_digest()
    assert fast.to_artifact()["latency_ms"] != slow.to_artifact()["latency_ms"]


def test_latency_percentiles_of_a_kind_without_decisions_are_zero():
    m = _metrics([("batch", 0.004), ("batch", 0.002)])
    assert m.decision_latencies_s("resolve").size == 0
    latency_ms = m.to_artifact()["latency_ms"]
    assert latency_ms["p50_resolve"] == latency_ms["p99_resolve"] == 0.0
    assert latency_ms["p50"] == pytest.approx(3.0)


def test_decision_counters_split_batches_from_resolves():
    m = _metrics([("batch", 0.0), ("resolve", 0.0), ("epoch", 0.0), ("resolve", 0.0)])
    assert (m.n_batch_solves, m.n_warm_resolves) == (2, 2)
    assert [d.index for d in m.decisions] == [0, 1, 2, 3]
    counters = m.to_artifact()["counters"]
    assert counters["decisions"] == 4
    assert (counters["batch_solves"], counters["warm_resolves"]) == (2, 2)


# -- the CLI --------------------------------------------------------------------


def test_cli_serve_soak_writes_the_metrics_artifact(tmp_path, capsys):
    out = tmp_path / "serving_metrics.json"
    rc = carbon_edge_main([
        "serve", "--smoke", "--duration-s", "3600", "--seed", "3",
        "--metrics-out", str(out)])
    assert rc == 0
    artifact = json.loads(out.read_text())
    assert artifact["version"] == SERVING_METRICS_VERSION
    printed = capsys.readouterr().out
    assert "decision latency" in printed and "placements/s" in printed
    assert f"decision digest: {artifact['decision_digest']}\n" in printed


def test_cli_serve_replay_parity_smoke(capsys):
    rc = carbon_edge_main(["serve", "--replay-parity", "--smoke",
                           "--max-sites", "8"])
    assert rc == 0
    assert "CarbonEdge: OK" in capsys.readouterr().out


def test_cli_serve_replay_parity_fails_loudly_on_mismatch(monkeypatch, capsys):
    """A decision divergence must exit non-zero, not just print."""
    from repro.serving import parity as parity_module

    real = parity_module.canonical_records
    flips = {"n": 0}

    def corrupted(result, policy):
        flips["n"] += 1
        payload = real(result, policy)
        # Corrupt only the service side (first of each compared pair).
        return payload.replace('"epoch":0', '"epoch":99') \
            if flips["n"] % 2 == 1 else payload

    monkeypatch.setattr(parity_module, "canonical_records", corrupted)
    rc = carbon_edge_main(["serve", "--replay-parity", "--smoke",
                           "--max-sites", "6"])
    assert rc == 1
    assert "MISMATCH" in capsys.readouterr().out


def test_cli_serve_rejects_bad_flags():
    with pytest.raises(SystemExit):
        carbon_edge_main(["serve", "--duration-s", "0"])
