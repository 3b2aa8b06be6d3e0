"""Tests for the scenario compilation layer (repro.solver.compile)."""

import numpy as np
import pytest

from repro.core.objective import ObjectiveKind
from repro.core.policies import (
    CarbonEdgePolicy,
    IntensityAwarePolicy,
    LatencyAwarePolicy,
)
from repro.solver.backend import SolveRequest
from repro.solver.compile import clear_compilation, compile_placement


def test_compilation_is_memoised_per_problem(central_eu_problem):
    a = compile_placement(central_eu_problem)
    b = compile_placement(central_eu_problem)
    assert a is b
    clear_compilation(central_eu_problem)
    c = compile_placement(central_eu_problem)
    assert c is not a


def test_solve_requests_share_the_problem_compilation(central_eu_problem):
    compilation = compile_placement(central_eu_problem)
    r1 = SolveRequest(problem=central_eu_problem)
    r2 = SolveRequest(problem=central_eu_problem, objective=ObjectiveKind.ENERGY)
    assert r1.compilation is compilation
    assert r1.dense().mask is r2.dense().mask  # one candidate mask per epoch
    assert r1.dense() is compilation.dense(ObjectiveKind.CARBON)
    # Different objectives get different (cached) cost tensors.
    assert r1.dense() is not r2.dense()
    assert r2.dense() is compilation.dense(ObjectiveKind.ENERGY)


def test_dense_tensors_cached_per_objective_and_power_mode(central_eu_problem):
    compilation = compile_placement(central_eu_problem)
    managed = compilation.dense(ObjectiveKind.CARBON, manage_power=True)
    unmanaged = compilation.dense(ObjectiveKind.CARBON, manage_power=False)
    assert managed is not unmanaged
    assert unmanaged.initially_on.all()
    assert not np.any(unmanaged.activation)
    assert managed is compilation.dense(ObjectiveKind.CARBON, manage_power=True)
    # The demand/capacity tensors are shared across every dense view.
    assert managed.demand is unmanaged.demand
    assert managed.capacity is unmanaged.capacity


def test_nearest_feasible_latencies(central_eu_problem):
    compilation = compile_placement(central_eu_problem)
    problem = central_eu_problem
    nearest = problem.nearest_feasible_ms()
    expected = np.where(problem.feasible_mask(), problem.latency_ms, np.inf).min(axis=1)
    assert np.array_equal(nearest, expected)
    assert compilation.n_nearest_unreachable == int(np.isinf(expected).sum())


def test_policies_reuse_one_compilation(central_eu_problem):
    compilation = compile_placement(central_eu_problem)
    for policy in (LatencyAwarePolicy(), IntensityAwarePolicy(),
                   CarbonEdgePolicy(solver="greedy")):
        policy.place(central_eu_problem)
    # All three objectives were compiled into the same shared object.
    kinds = {key[0] for key in compilation._dense}
    assert {ObjectiveKind.LATENCY, ObjectiveKind.INTENSITY,
            ObjectiveKind.CARBON} <= kinds


def test_unreachable_apps_are_counted(central_eu_fleet, central_eu_latency,
                                      central_eu_carbon):
    from repro.core.problem import PlacementProblem
    from tests.conftest import make_apps

    apps = make_apps(["Bern"], workload="UnknownNet") + make_apps(["Lyon"])
    problem = PlacementProblem.build(apps, central_eu_fleet.servers(),
                                     central_eu_latency, central_eu_carbon, hour=0)
    compilation = compile_placement(problem)
    assert compilation.n_nearest_unreachable == 1
    assert np.isinf(problem.nearest_feasible_ms()[0])
    assert np.isfinite(problem.nearest_feasible_ms()[1])


def test_clear_compilation_invalidates_problem_caches(central_eu_problem):
    problem = central_eu_problem
    compile_placement(problem).dense()  # populate every cache
    stale_mask = problem.feasible_mask()
    # Mutate in place (tests only; production builds a fresh problem per
    # epoch) and invalidate per the documented contract.
    problem.latency_ms = np.full_like(problem.latency_ms, 1e9)
    clear_compilation(problem)
    fresh_mask = problem.feasible_mask()
    assert fresh_mask is not stale_mask
    assert not fresh_mask.any()


def test_raw_problem_is_one_class_per_application():
    """A raw-constructed problem records each row as its own class, and its
    dense view holds one table row and one demand block per application."""
    from tests.test_highs_backend import _unit_problem

    problem = _unit_problem(4, 3)
    dense = compile_placement(problem).dense()
    assert np.array_equal(dense.row_class, np.arange(4))
    for table in (dense.cost, dense.raw_assign, dense.mask, dense.energy):
        assert table.shape == (4, 3)
    assert np.array_equal(dense.class_block, np.arange(4))
    assert dense.demand.shape[:2] == (4, 3)


def test_clear_compilation_resets_row_classes(central_eu_problem):
    problem = central_eu_problem
    assert len(np.unique(compile_placement(problem).dense().row_class)) \
        < problem.n_applications
    clear_compilation(problem)
    dense = compile_placement(problem).dense()
    assert np.array_equal(dense.row_class, np.arange(problem.n_applications))
    assert len(dense.cost) == problem.n_applications


def test_problem_dense_resource_tensors(central_eu_problem):
    """The problem's capacity and demand tables hold, key by key, each
    server's available capacity and each application's demand on it (zero
    where its workload has no profile)."""
    problem = central_eu_problem
    keys = problem.resource_keys
    assert keys == tuple(sorted(keys))
    demand, capacity = problem.demand, problem.capacity
    assert demand.shape == (problem.n_applications, problem.n_servers, len(keys))
    assert capacity.shape == (problem.n_servers, len(keys))
    for j, server in enumerate(problem.servers):
        cap = server.available_capacity
        for ki, key in enumerate(keys):
            assert capacity[j, ki] == cap.get(key)
    for i, app in enumerate(problem.applications):
        for j, server in enumerate(problem.servers):
            vec = app.resource_demand_on(server) if problem.supported[i, j] else None
            for ki, key in enumerate(keys):
                assert demand[i, j, ki] == (vec.get(key) if vec is not None else 0.0)


def test_app_indices_vectorised_lookup(central_eu_problem):
    problem = central_eu_problem
    ids = [app.app_id for app in problem.applications][::-1]
    idx = problem.app_indices(ids)
    assert idx.tolist() == list(range(problem.n_applications))[::-1]
    with pytest.raises(KeyError, match="unknown application"):
        problem.app_indices(["nope"])


def test_forecast_mean_is_memoised(central_eu_carbon):
    service = central_eu_carbon
    service.clear_forecast_cache()
    zone = service.zones()[0]
    first = service.forecast_mean(zone, 0, 24)
    assert len(service._forecast_cache) == 1
    assert service.forecast_mean(zone, 0, 24) == first
    assert len(service._forecast_cache) == 1
    # A different epoch window is a different cache entry.
    service.forecast_mean(zone, 24, 24)
    assert len(service._forecast_cache) == 2
    # Swapping the forecaster never serves a stale mean.
    from repro.carbon.forecasting import PersistenceForecaster
    service.forecaster = PersistenceForecaster()
    persisted = service.forecast_mean(zone, 0, 24)
    assert persisted == pytest.approx(service.current_intensity(zone, 0))
