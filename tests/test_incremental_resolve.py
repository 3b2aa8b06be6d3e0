"""Tests for warm-started epoch re-solves (IncrementalPlacer.resolve_epoch)."""

import pytest

from repro.core.incremental import IncrementalPlacer
from repro.core.policies import LatencyAwarePolicy
from repro.core.policies.carbon_edge import CarbonEdgePolicy
from repro.core.problem import _demand_for
from repro.core.validation import validate_solution
from repro.network.latency import LatencyMatrix  # noqa: F401  (fixture types)
from repro.utils.units import joules_to_kwh

from tests.conftest import make_apps, per_app


@pytest.fixture
def placer(central_eu_fleet, central_eu_latency, central_eu_carbon):
    return IncrementalPlacer(fleet=central_eu_fleet, latency=central_eu_latency,
                             carbon=central_eu_carbon, policy=CarbonEdgePolicy(),
                             horizon_hours=24.0)


def test_resolve_epoch_without_running_apps_is_noop(placer):
    assert placer.resolve_epoch(hour=0) is None
    assert placer.history == []


def test_resolve_epoch_keeps_every_app_running(placer, central_eu_fleet):
    apps = make_apps(central_eu_fleet.sites(), n_per_site=2)
    first = placer.place_batch(apps, hour=0)
    assert first.all_placed

    resolved = placer.resolve_epoch(hour=12)
    assert resolved is not None
    validate_solution(resolved)
    assert resolved.all_placed
    assert set(resolved.placements) == set(first.placements)
    # The re-solve round is recorded but not double-counted as new arrivals.
    assert placer.history[-1].kind == "resolve"
    assert placer.total_placed() == len(apps)
    # Fleet allocations reflect the re-solved placement exactly.
    allocated = {app_id for server in central_eu_fleet.servers()
                 for app_id in server.allocations}
    assert allocated == set(resolved.placements)


def test_resolve_epoch_warm_start_never_worse_than_staying(placer, central_eu_fleet):
    apps = make_apps(central_eu_fleet.sites(), n_per_site=2)
    first = placer.place_batch(apps, hour=0)

    resolved = placer.resolve_epoch(hour=12)
    # Evaluate "keep the old placement" on the hour-12 problem: the re-solve
    # was warm-started from it, so it can only be equal or better.
    stay = joules_to_kwh(per_app(resolved.problem)["energy_j"]) * resolved.problem.intensity
    stay_carbon = sum(stay[resolved.problem.app_index(a), j]
                      for a, j in first.placements.items())
    assert resolved.operational_carbon_g() <= stay_carbon + 1e-9


def test_released_apps_are_not_resolved_again(placer, central_eu_fleet):
    apps = make_apps(central_eu_fleet.sites())
    first = placer.place_batch(apps, hour=0)
    victim = apps[0].app_id
    # Release the way the serving loop does on a departure.
    first.problem.servers[first.placements[victim]].release(victim)
    placer.active_apps.pop(victim)

    resolved = placer.resolve_epoch(hour=6)
    assert resolved is not None
    assert victim not in resolved.placements and victim not in resolved.unplaced
    assert set(resolved.placements) == {a.app_id for a in apps[1:]}


class _FailingPolicy(CarbonEdgePolicy):
    """Policy whose solve always explodes (rollback-path test double)."""

    def place(self, problem, warm_start=None):
        raise RuntimeError("solver exploded")


class _EvictingPolicy(CarbonEdgePolicy):
    """Policy that drops one placed application (eviction-path test double)."""

    def place(self, problem, warm_start=None):
        solution = super().place(problem, warm_start=warm_start)
        victim = sorted(solution.placements)[0]
        del solution.placements[victim]
        solution.unplaced.append(victim)
        return solution


def _allocation_map(fleet):
    return {app_id: server.server_id for server in fleet.servers()
            for app_id in server.allocations}


def test_resolves_keep_each_app_on_one_host_with_its_demand(
        central_eu_fleet, central_eu_latency, central_eu_carbon):
    """Migrations move allocations rather than copy them: after every
    re-solve each running application is held once, on the server its
    latest solution names, at its demand there. Batches placed locally and
    re-solved for carbon make the first re-solve migrate."""
    placer = IncrementalPlacer(fleet=central_eu_fleet, latency=central_eu_latency,
                               carbon=central_eu_carbon, policy=LatencyAwarePolicy(),
                               horizon_hours=24.0)
    sites = central_eu_fleet.sites()
    placer.place_batch(make_apps(sites, rate_rps=300.0), hour=0)
    placer.place_batch(make_apps(sites[:3], workload="Sci", slo_ms=40.0), hour=1)
    placer.policy = CarbonEdgePolicy()
    hosts = {app_id: server.server_id for server in central_eu_fleet.servers()
             for app_id in server.allocations}
    moved = 0
    for hour in (12, 60, 120):
        solution = placer.resolve_epoch(hour)
        problem = solution.problem
        assert set(solution.placements) == set(placer.active_apps)
        held = [(app_id, server) for server in central_eu_fleet.servers()
                for app_id in server.allocations]
        assert sorted(app_id for app_id, _ in held) == sorted(placer.active_apps)
        for app_id, server in held:
            app = placer.active_apps[app_id]
            assert server is problem.servers[solution.placements[app_id]]
            assert server.allocations[app_id] == _demand_for(app.request_rate_rps,
                                                             app.profile_on(server))
            moved += hosts[app_id] != server.server_id
            hosts[app_id] = server.server_id
    assert moved > 0


def test_resolve_epoch_failure_restores_allocations(placer, central_eu_fleet):
    apps = make_apps(central_eu_fleet.sites(), n_per_site=2)
    placer.place_batch(apps, hour=0)
    before = _allocation_map(central_eu_fleet)

    placer.policy = _FailingPolicy()
    with pytest.raises(RuntimeError, match="solver exploded"):
        placer.resolve_epoch(hour=12)
    # The fleet is exactly as it was, and a later re-solve still works.
    assert _allocation_map(central_eu_fleet) == before
    placer.policy = CarbonEdgePolicy()
    resolved = placer.resolve_epoch(hour=12)
    assert resolved is not None and resolved.all_placed


class _ExpectedFailurePolicy(CarbonEdgePolicy):
    """Policy raising an *expected* failure type (ValueError)."""

    def place(self, problem, warm_start=None):
        raise ValueError("infeasible by construction")


def test_resolve_epoch_unexpected_error_is_logged_and_propagates(
        placer, central_eu_fleet, caplog):
    import logging

    apps = make_apps(central_eu_fleet.sites(), n_per_site=2)
    placer.place_batch(apps, hour=0)
    before = _allocation_map(central_eu_fleet)

    placer.policy = _FailingPolicy()  # raises RuntimeError: not an expected type
    with caplog.at_level(logging.ERROR, logger="repro.core.incremental"):
        with pytest.raises(RuntimeError, match="solver exploded"):
            placer.resolve_epoch(hour=12)
    # The injected error surfaced to the caller, the fleet was restored, AND
    # the unexpected type was logged (it must never be silently
    # indistinguishable from a routine validation failure).
    assert _allocation_map(central_eu_fleet) == before
    logged = [r for r in caplog.records if "unexpected RuntimeError" in r.getMessage()]
    assert len(logged) == 1
    assert "fleet state restored" in logged[0].getMessage()


def test_resolve_epoch_expected_error_propagates_without_noise(
        placer, central_eu_fleet, caplog):
    import logging

    apps = make_apps(central_eu_fleet.sites(), n_per_site=2)
    placer.place_batch(apps, hour=0)
    before = _allocation_map(central_eu_fleet)

    placer.policy = _ExpectedFailurePolicy()
    with caplog.at_level(logging.ERROR, logger="repro.core.incremental"):
        with pytest.raises(ValueError, match="infeasible by construction"):
            placer.resolve_epoch(hour=12)
    assert _allocation_map(central_eu_fleet) == before
    # Expected failure types surface as-is, with no "unexpected" log record.
    assert not [r for r in caplog.records if "unexpected" in r.getMessage()]


def test_resolve_epoch_drops_evicted_apps(placer, central_eu_fleet):
    apps = make_apps(central_eu_fleet.sites(), n_per_site=2)
    placer.place_batch(apps, hour=0)

    placer.policy = _EvictingPolicy()
    resolved = placer.resolve_epoch(hour=12)
    assert len(resolved.unplaced) == 1
    victim = resolved.unplaced[0]
    # The evicted app holds no capacity and leaves the active set; everyone
    # else is allocated where the re-solve put them.
    assert victim not in placer.active_apps
    assert _allocation_map(central_eu_fleet) == {
        app_id: resolved.problem.servers[j].server_id
        for app_id, j in resolved.placements.items()}
    # A later re-solve does not bring it back.
    placer.policy = CarbonEdgePolicy()
    again = placer.resolve_epoch(hour=13)
    assert victim not in again.placements and victim not in again.unplaced
    assert set(again.placements) == set(resolved.placements)


# -- scenario-lifetime compilation: delta path vs cold rebuild -------------------


def _run_batch_and_resolve(fleet, latency, carbon, disable_tier: bool):
    """One arrival batch + one warm-started epoch re-solve, delta or cold
    (cold: every build is the per-object reference build)."""
    import contextlib

    from repro.solver.compile import clear_scenario_compilations, compile_placement

    from tests.conftest import cold_builds

    clear_scenario_compilations()
    placer = IncrementalPlacer(fleet=fleet, latency=latency, carbon=carbon,
                               policy=CarbonEdgePolicy(), horizon_hours=24.0)
    cold = cold_builds() if disable_tier else contextlib.nullcontext()
    with cold:
        apps = make_apps(fleet.sites(), n_per_site=2)
        batch = placer.place_batch(apps, hour=0)
        resolved = placer.resolve_epoch(hour=12)
    n_classes = len(set(compile_placement(batch.problem).dense().row_class.tolist()))
    assert (n_classes == batch.problem.n_applications) == disable_tier
    return batch, resolved, _allocation_map(fleet)


def test_resolve_epoch_delta_path_bit_identical_to_cold_rebuild(
        central_eu_latency, central_eu_carbon):
    """The scenario tier's warm-start (non-pristine) delta path must produce
    bit-identical batch and re-solve solutions — and identical committed
    fleet state — to building every epoch problem from scratch."""
    import numpy as np

    from repro.cluster.fleet import build_regional_fleet
    from repro.datasets.regions import CENTRAL_EU

    arms = {}
    for disable in (True, False):
        fleet = build_regional_fleet(CENTRAL_EU)  # fresh fleet per arm
        arms[disable] = _run_batch_and_resolve(
            fleet, central_eu_latency, central_eu_carbon, disable_tier=disable)

    (cold_batch, cold_resolved, cold_alloc) = arms[True]
    (fast_batch, fast_resolved, fast_alloc) = arms[False]
    for cold, fast in ((cold_batch, fast_batch), (cold_resolved, fast_resolved)):
        assert cold.placements == fast.placements
        assert cold.unplaced == fast.unplaced
        assert np.array_equal(cold.power_on, fast.power_on)
        assert cold.total_carbon_g() == fast.total_carbon_g()
        assert cold.total_energy_j() == fast.total_energy_j()
        # The problems themselves carry identical per-application views and
        # server arrays, dtype included (the re-solve's problem reads live,
        # non-pristine fleet state through the delta).
        cold_views, fast_views = per_app(cold.problem), per_app(fast.problem)
        for name, a in cold_views.items():
            b = fast_views[name]
            assert a.dtype == b.dtype and np.array_equal(a, b), name
        for name in ("intensity", "current_power", "capacity"):
            a, b = getattr(cold.problem, name), getattr(fast.problem, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert cold_alloc == fast_alloc
