"""Tests for warm-started epoch re-solves (IncrementalPlacer.resolve_epoch and
EdgeOrchestrator.reoptimize)."""

import pytest

from repro.core.incremental import IncrementalPlacer
from repro.core.policies.carbon_edge import CarbonEdgePolicy
from repro.core.validation import validate_solution
from repro.network.latency import LatencyMatrix  # noqa: F401  (fixture types)
from repro.orchestrator.orchestrator import EdgeOrchestrator
from repro.orchestrator.deployment import DeploymentState
from repro.utils.units import joules_to_kwh

from tests.conftest import make_apps


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
    stay = joules_to_kwh(resolved.problem.energy_j) * resolved.problem.intensity
    stay_carbon = sum(stay[resolved.problem.app_index(a), j]
                      for a, j in first.placements.items())
    assert resolved.operational_carbon_g() <= stay_carbon + 1e-9


def test_orchestrator_reoptimize_migrates_and_rebinds(placer, central_eu_fleet):
    orchestrator = EdgeOrchestrator(placer=placer)
    apps = make_apps(central_eu_fleet.sites(), n_per_site=2)
    orchestrator.deploy_batch(apps, hour=0)
    before = {a: b.server_id for a, b in orchestrator.bindings.items()}
    assert len(before) == len(apps)

    moved = orchestrator.reoptimize(hour=12)
    # Every app still has a RUNNING deployment and a binding that matches it.
    for app in apps:
        binding = orchestrator.binding_for(app.app_id)
        deployment = orchestrator.deployments[f"dep-{app.app_id}"]
        assert deployment.state is DeploymentState.RUNNING
        assert deployment.server_id == binding.server_id
    # The reported moves are exactly the bindings that changed.
    after = {a: b.server_id for a, b in orchestrator.bindings.items()}
    assert moved == {a: s for a, s in after.items() if before[a] != s}


def test_reoptimize_with_nothing_deployed_returns_empty(placer):
    orchestrator = EdgeOrchestrator(placer=placer)
    assert orchestrator.reoptimize(hour=3) == {}


def test_terminated_apps_are_not_resolved_again(placer, central_eu_fleet):
    orchestrator = EdgeOrchestrator(placer=placer)
    apps = make_apps(central_eu_fleet.sites())
    orchestrator.deploy_batch(apps, hour=0)
    victim = apps[0].app_id
    orchestrator.terminate(victim)
    assert victim not in placer.active_apps

    resolved = placer.resolve_epoch(hour=6)
    assert resolved is not None
    assert victim not in resolved.placements
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


def test_reoptimize_tears_down_evicted_apps(placer, central_eu_fleet):
    orchestrator = EdgeOrchestrator(placer=placer)
    apps = make_apps(central_eu_fleet.sites(), n_per_site=2)
    orchestrator.deploy_batch(apps, hour=0)

    placer.policy = _EvictingPolicy()
    orchestrator.reoptimize(hour=12)
    resolved = placer.history[-1].solution
    assert len(resolved.unplaced) == 1
    victim = resolved.unplaced[0]
    # The evicted app holds no capacity, binding, running deployment, or
    # active-apps entry any more.
    assert victim not in _allocation_map(central_eu_fleet)
    assert victim not in orchestrator.bindings
    assert orchestrator.deployments[f"dep-{victim}"].state is DeploymentState.TERMINATED
    assert victim not in placer.active_apps
    # Everyone else is still consistently deployed.
    for app_id in resolved.placements:
        assert orchestrator.binding_for(app_id).server_id == \
            orchestrator.deployments[f"dep-{app_id}"].server_id


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
        # The problems themselves carry identical tensors (the re-solve's
        # problem reads live, non-pristine fleet state through the delta).
        for name in ("latency_ms", "energy_j", "supported", "intensity",
                     "current_power"):
            assert np.array_equal(getattr(cold.problem, name),
                                  getattr(fast.problem, name)), name
        assert np.array_equal(cold.problem.capacity, fast.problem.capacity)
    assert cold_alloc == fast_alloc
