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
from repro.solver.compile import class_costs, clear_compilation, compile_placement
from tests.conftest import per_app


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
    views = per_app(problem)
    expected = np.where(views["feasible_mask"], views["latency_ms"], np.inf).min(axis=1)
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


def test_clear_compilation_keeps_row_classes(central_eu_problem):
    """Clearing drops the cached views, not the problem's classes: the
    recompiled dense views hold the same class and block rows and equal the
    first compilation's bit for bit."""
    problem = central_eu_problem
    kinds = (ObjectiveKind.CARBON, ObjectiveKind.LATENCY, ObjectiveKind.MULTI)
    first = [compile_placement(problem).dense(kind, alpha=0.5) for kind in kinds]
    assert len(np.unique(first[0].row_class)) < problem.n_applications
    clear_compilation(problem)
    for kind, before in zip(kinds, first):
        after = compile_placement(problem).dense(kind, alpha=0.5)
        assert after is not before
        assert np.array_equal(after.row_class, problem.row_class)
        for name in ("row_class", "class_block", "mask", "cost", "raw_assign",
                     "energy", "demand", "capacity", "activation", "initially_on"):
            a, b = getattr(before, name), getattr(after, name)
            assert a.dtype == b.dtype and np.array_equal(a, b), (kind, name)


def test_problem_dense_resource_tensors(central_eu_problem):
    """The problem's capacity and demand tables hold, key by key, each
    server's available capacity and each application's demand on it (zero
    where its workload has no profile)."""
    problem = central_eu_problem
    keys = problem.resource_keys
    assert keys == tuple(sorted(keys))
    assert problem.demand.shape == (len(problem.demand), problem.n_servers, len(keys))
    views = per_app(problem)
    demand, supported, capacity = views["demand"], views["supported"], problem.capacity
    assert demand.shape == (problem.n_applications, problem.n_servers, len(keys))
    assert capacity.shape == (problem.n_servers, len(keys))
    for j, server in enumerate(problem.servers):
        cap = server.available_capacity
        for ki, key in enumerate(keys):
            assert capacity[j, ki] == cap.get(key)
    for i, app in enumerate(problem.applications):
        for j, server in enumerate(problem.servers):
            vec = app.resource_demand_on(server) if supported[i, j] else None
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


@pytest.mark.parametrize("objective", list(ObjectiveKind), ids=lambda kind: kind.value)
def test_dense_cost_is_the_objective_plus_a_bounded_tie_break(central_eu_problem,
                                                              objective):
    """On candidates the cost is the raw coefficient plus a non-negative
    perturbation of at most 1e-5 of the largest candidate coefficient; off
    them it is +inf. The tables keep the problem's class layout."""
    problem = central_eu_problem
    alpha = 0.5 if objective is ObjectiveKind.MULTI else 0.0
    dense = compile_placement(problem).dense(objective, alpha=alpha)
    mask = dense.mask
    assert np.array_equal(mask, compile_placement(problem).candidate_mask())
    assert np.isinf(dense.cost[~mask]).all() and np.isfinite(dense.cost[mask]).all()
    raw = dense.raw_assign[mask]
    bump = dense.cost[mask] - raw
    assert bump.min() >= 0.0
    assert bump.max() <= 1e-5 * np.abs(raw).max() * (1.0 + 1e-9)
    assert dense.row_class is problem.row_class
    assert dense.class_block is problem.class_block


def _one_class_costs(objective, lat, intensity, mask):
    """:func:`class_costs` of one class over len(lat) servers, each assignment
    using 1 kWh, power unmanaged and no resource dimensions."""
    s = len(lat)
    mask = np.array([mask])
    return class_costs(
        np.array([lat], dtype=float), mask, mask, np.full((1, s), 3.6e6),
        np.zeros((1, s, 0)), np.zeros((s, 0)), keys=[],
        intensity=np.array(intensity, dtype=float), act_carbon=np.ones(s),
        act_energy=np.ones(s), current_power=np.zeros(s), objective=objective,
        alpha=0.0, manage_power=False, row_class=np.zeros(1, dtype=int),
        class_block=np.zeros(1, dtype=int))


def test_class_costs_break_carbon_ties_by_latency():
    """Two candidates emitting the same 100 g: the nearer one costs less.
    The greenest server is no candidate, so it costs +inf."""
    dense = _one_class_costs(ObjectiveKind.CARBON, lat=[4.0, 2.0, 1.0],
                             intensity=[100.0, 100.0, 50.0], mask=[True, True, False])
    assert dense.raw_assign.tolist() == [[100.0, 100.0, 50.0]]
    assert dense.cost[0, 1] < dense.cost[0, 0] <= 100.0 * (1.0 + 1e-5)
    assert dense.cost[0, 2] == np.inf
    # Power left unmanaged: no activation cost and every server counts as on.
    assert not dense.activation.any() and dense.initially_on.all()


def test_class_costs_break_latency_ties_by_carbon():
    """Two candidates 2 ms away: the greener one costs less."""
    dense = _one_class_costs(ObjectiveKind.LATENCY, lat=[2.0, 2.0, 1.0],
                             intensity=[100.0, 50.0, 10.0], mask=[True, True, False])
    assert dense.raw_assign.tolist() == [[2.0, 2.0, 1.0]]
    assert dense.cost[0, 1] < dense.cost[0, 0] <= 2.0 * (1.0 + 1e-5)
    assert dense.cost[0, 2] == np.inf
