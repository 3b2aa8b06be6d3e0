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


def test_empty_metrics_are_well_defined():
    m = ServingMetrics()
    m.finish()
    assert m.latency_percentile_ms(99.0) == 0.0
    assert m.placements_per_s() == 0.0
    assert m.carbon_per_request_g() == 0.0
    artifact = m.to_artifact()
    assert artifact["counters"]["decisions"] == 0


# -- the latency reservoirs -----------------------------------------------------


def test_latency_reservoir_is_exact_below_capacity():
    from repro.serving.metrics import LatencyReservoir

    r = LatencyReservoir(capacity=16)
    stream = [float(k) for k in range(10)]
    for v in stream:
        r.add(v)
    assert not r.saturated
    assert len(r) == r.n_seen == 10
    assert r.values().tolist() == stream


def test_latency_reservoir_caps_memory_and_stays_deterministic():
    from repro.serving.metrics import LatencyReservoir

    stream = [float(k) % 37.0 for k in range(5000)]
    a, b = LatencyReservoir(capacity=64), LatencyReservoir(capacity=64)
    for v in stream:
        a.add(v)
        b.add(v)
    assert a.saturated and a.n_seen == 5000
    assert len(a) == 64  # bounded memory no matter the stream length
    # Same seed, same stream -> the identical uniform sample (and therefore
    # identical p50/p99 in any report built on it).
    assert a.values().tolist() == b.values().tolist()
    # A different seed subsamples differently (the sample is seed-pinned,
    # not accidentally order-stable).
    c = LatencyReservoir(capacity=64, seed=1)
    for v in stream:
        c.add(v)
    assert c.values().tolist() != a.values().tolist()
    assert set(c.values().tolist()) <= set(stream)


def test_latency_reservoir_rejects_degenerate_capacity():
    from repro.serving.metrics import LatencyReservoir

    with pytest.raises(ValueError, match="capacity"):
        LatencyReservoir(capacity=0)


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


def test_serving_metrics_percentiles_are_reservoir_backed():
    """Long decision streams must not grow memory: percentiles read from a
    seeded reservoir, identically across two metric sinks fed the same
    stream, and the artifact reports the subsampling provenance."""
    sinks = [ServingMetrics(latency_reservoir_size=32) for _ in range(2)]
    for m in sinks:
        for k in range(500):
            m.record_decision("batch" if k % 3 else "resolve",
                              time_s=float(k), hour=0,
                              solution=_StubSolution(),
                              latency_s=(k * 7) % 101 / 1000.0)
        m.finish()
    a, b = sinks
    assert len(a.decision_latencies_s()) == 32  # capped, not 500
    assert a.decision_latencies_s().tolist() == b.decision_latencies_s().tolist()
    for kind in (None, "batch", "resolve"):
        assert a.latency_percentile_ms(50.0, kind) == \
            b.latency_percentile_ms(50.0, kind)
        assert a.latency_percentile_ms(99.0, kind) == \
            b.latency_percentile_ms(99.0, kind)
    reservoir = a.to_artifact()["latency_ms"]["reservoir"]
    assert reservoir["capacity"] == 32
    assert reservoir["seen"] == 500
    assert reservoir["sampled"] == 32


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
