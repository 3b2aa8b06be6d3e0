"""Benchmark: the serving loop's warm re-solve path vs. cold per-event builds.

The online service's rolling-horizon tick re-solves the live placement
through :meth:`IncrementalPlacer.resolve_epoch` — scenario-tier delta
assembly, warm-started solver — instead of the cold path a naive service
would take per event: release everything, a fresh per-object build
(``tests/conftest.py::cold_build``, no scenario tier), an uncompiled solve,
then the same validate + commit. This benchmark races the two loops on the
same event sequence over two identical fleets (both sides pay identical
decision-application work, so the race isolates the warm machinery) and
asserts the warm path wins at the p99, which is the latency the soak
artifact reports.

Each run appends a record to ``BENCH_serving.json`` (repo root) so the
serving-latency trajectory stays visible across PRs, alongside a bounded
live soak that reports sustained placements/sec through the full event loop.
"""

from __future__ import annotations

import gc
import time
from pathlib import Path

import numpy as np

from bench_util import append_bench_record
from repro.core.incremental import IncrementalPlacer
from repro.core.policies.carbon_edge import CarbonEdgePolicy
from repro.serving.loadgen import LoadGenerator
from repro.serving.service import PlacementService, ServingConfig
from repro.simulator.cdn import CDNSimulator
from repro.simulator.scenario import CDNScenario

from tests.conftest import cold_build

#: Where the serving-latency trajectory is appended (repo root).
ARTIFACT = Path(__file__).resolve().parent.parent / "BENCH_serving.json"

#: Rolling-horizon events raced by the warm-vs-cold comparison.
N_EVENTS = 16

#: Steady-state passes over the event sequence; each event's latency is the
#: minimum across passes, which filters scheduler/timer noise out of a p99
#: that would otherwise be decided by whichever side caught a stray pause.
N_PASSES = 3


def _record(benchmark: str, payload: dict) -> None:
    append_bench_record(ARTIFACT, benchmark, payload, sort_keys=True)


def _seeded_placer(scenario: CDNScenario, n_arrivals: int) -> tuple[CDNSimulator, IncrementalPlacer]:
    """A fresh simulator + placer with ``n_arrivals`` applications committed."""
    simulator = CDNSimulator(scenario=scenario)
    policy = CarbonEdgePolicy(solver="greedy")
    placer = IncrementalPlacer(fleet=simulator.fleet, latency=simulator.latency,
                               carbon=simulator.carbon, policy=policy,
                               horizon_hours=float(scenario.hours_per_epoch))
    batch = simulator.generator.generate_batch(0, 0, n_arrivals=n_arrivals)
    placer.place_batch(list(batch.applications), hour=0)
    return simulator, placer


def test_bench_warm_resolve_beats_cold_build_per_event(bench_once):
    """p99 warm re-solve latency < p99 cold build+solve on the same events."""
    from repro.core.validation import validate_solution

    scenario = CDNScenario(continent="EU", seed=0)
    # Two identical fleets (same scenario seed): the warm loop re-solves via
    # IncrementalPlacer.resolve_epoch, the cold loop is the naive service a
    # per-event rebuild implies. Both start from the same committed batch.
    _warm_sim, warm_placer = _seeded_placer(scenario, n_arrivals=300)
    cold_sim, cold_placer = _seeded_placer(scenario, n_arrivals=300)
    cold_policy = CarbonEdgePolicy(solver="greedy")
    horizon = float(scenario.hours_per_epoch)

    def cold_resolve(hour: int):
        # The naive loop does the same decision-application work as
        # resolve_epoch (release everything, validate, commit) but rebuilds
        # the problem from scratch with no scenario tier and solves with no
        # warm start.
        apps = list(cold_placer.active_apps.values())
        for server in cold_sim.fleet.servers():
            for app_id in list(server.allocations):
                server.release(app_id)
        problem = cold_build(
            applications=apps, servers=cold_sim.fleet.servers(),
            latency=cold_sim.latency, carbon=cold_sim.carbon,
            hour=hour, horizon_hours=horizon)
        solution = cold_policy.timed_place(problem)
        validate_solution(solution, strict=True)
        cold_placer.commit(solution)
        return solution

    def race():
        warm_s = np.full((N_PASSES, N_EVENTS), np.inf)
        cold_s = np.full((N_PASSES, N_EVENTS), np.inf)
        # One untimed event first: the initial re-solve on each side pays
        # one-time lazy setup (import paths, memoised capacity vectors) that
        # is not part of the steady-state latency the soak artifact reports.
        assert cold_resolve(12) is not None
        assert warm_placer.resolve_epoch(12) is not None
        # A GC pause landing inside a timed window would decide the p99 by
        # itself; collect up front and keep the collector out of the race.
        gc.collect()
        gc.disable()
        try:
            for rep in range(N_PASSES):
                for event in range(N_EVENTS):
                    hour = (rep * N_EVENTS + event + 1) * 24
                    started = time.perf_counter()
                    assert cold_resolve(hour) is not None
                    cold_s[rep, event] = time.perf_counter() - started
                    # Warm path: the serving loop's rolling-horizon re-solve.
                    started = time.perf_counter()
                    solution = warm_placer.resolve_epoch(hour)
                    warm_s[rep, event] = time.perf_counter() - started
                    assert solution is not None
        finally:
            gc.enable()
        # Every pass is steady state, so the min across passes estimates the
        # true per-event cost with scheduler noise stripped.
        return warm_s.min(axis=0), cold_s.min(axis=0)

    warm_s, cold_s = bench_once(race)
    warm_p99_ms = float(np.percentile(warm_s, 99) * 1000.0)
    cold_p99_ms = float(np.percentile(cold_s, 99) * 1000.0)
    print(f"\nwarm re-solve p99: {warm_p99_ms:.2f} ms over {N_EVENTS} events "
          f"(p50 {np.percentile(warm_s, 50) * 1000.0:.2f} ms)")
    print(f"cold build+solve p99: {cold_p99_ms:.2f} ms "
          f"(p50 {np.percentile(cold_s, 50) * 1000.0:.2f} ms)")
    print(f"speedup at p99: {cold_p99_ms / warm_p99_ms:.2f}x")
    _record("warm_resolve_vs_cold_build", {
        "timestamp": time.time(),
        "n_events": N_EVENTS,
        "warm_p99_ms": warm_p99_ms,
        "cold_p99_ms": cold_p99_ms,
        "speedup_p99": cold_p99_ms / warm_p99_ms,
    })
    assert warm_p99_ms < cold_p99_ms, (
        f"warm re-solve p99 {warm_p99_ms:.2f} ms must beat the cold "
        f"per-event path {cold_p99_ms:.2f} ms")


def test_bench_live_soak_throughput(bench_once):
    """A bounded live soak through the full event loop, timed end to end."""
    scenario = CDNScenario(continent="EU", max_sites=10, seed=0)
    service = PlacementService.from_scenario(
        scenario, config=ServingConfig(batch_interval_s=300.0,
                                       resolve_interval_s=3600.0))
    load = LoadGenerator(sites=service.simulator.fleet.sites(),
                         rate_per_s=0.02, mean_lifetime_s=5400.0, seed=0)

    report = bench_once(service.run_live, load, 6 * 3600.0)
    metrics = report.metrics
    assert metrics.total_placed() > 0
    assert metrics.n_warm_resolves > 0
    print(f"\nsoak: {metrics.n_events} events, {metrics.total_placed()} "
          f"placements in {metrics.wall_elapsed_s:.2f} s wall "
          f"({metrics.placements_per_s():.0f} placements/s)")
    print(f"decision latency p50 {metrics.latency_percentile_ms(50.0):.2f} ms, "
          f"p99 {metrics.latency_percentile_ms(99.0):.2f} ms")
    _record("live_soak", {
        "timestamp": time.time(),
        "events": metrics.n_events,
        "placements": metrics.total_placed(),
        "placements_per_s": metrics.placements_per_s(),
        "p50_ms": metrics.latency_percentile_ms(50.0),
        "p99_ms": metrics.latency_percentile_ms(99.0),
    })
