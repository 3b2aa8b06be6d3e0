"""Tests of the cluster-then-refine hierarchical solver tier.

Covers the determinism contract (plans are pure functions of their inputs),
the degenerate single-region case
collapsing to the flat solve, spill accounting under overload, and the
dense-cell budget guard that points planetary users at this tier.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.objective import ObjectiveKind
from repro.experiments.planetary_sweep import build_planetary_substrate
from repro.solver.compile import ScenarioCompilation
from repro.solver.config import SolverConfig
from repro.solver.hierarchy import (
    HierarchicalResult,
    RegionPlan,
    build_region_plan,
    region_server_columns,
    solve_hierarchical,
)
from repro.solver.registry import solve as registry_solve
from repro.workloads.generator import ApplicationGenerator

HOUR = 4700


def _substrate(n_sites: int, n_apps: int, seed: int = 0,
               latency_slo_ms: float = 40.0):
    fleet, latency, carbon = build_planetary_substrate(n_sites, seed=seed)
    compilation = ScenarioCompilation(fleet.servers(), latency, carbon)
    generator = ApplicationGenerator(
        sites=fleet.sites(), latency_slo_ms=latency_slo_ms,
        mean_arrivals_per_batch=float(n_apps), duration_hours=1.0, seed=seed)
    apps = list(generator.generate_batch(0, HOUR, n_arrivals=n_apps).applications)
    return fleet, compilation, apps


# --------------------------------------------------------------------------
# Region plans
# --------------------------------------------------------------------------

def test_region_plan_is_deterministic():
    fleet, _, _ = _substrate(40, 1)
    names, coords = fleet.sites(), fleet.site_coordinates()
    a = build_region_plan(names, coords, 5, seed=3)
    b = build_region_plan(names, coords, 5, seed=3)
    assert a.method == "kmeans"
    assert np.array_equal(a.site_region, b.site_region)
    assert np.array_equal(a.centroids, b.centroids)
    assert np.array_equal(a.neighbor_order, b.neighbor_order)
    # A different seed re-draws the k-means initialisation.
    c = build_region_plan(names, coords, 5, seed=4)
    assert c.method == "kmeans"


def test_region_plan_covers_every_site_exactly_once():
    fleet, _, _ = _substrate(40, 1)
    plan = build_region_plan(fleet.sites(), fleet.site_coordinates(), 6, seed=0)
    assert plan.site_region.shape == (40,)
    assert plan.site_region.min() >= 0 and plan.site_region.max() < plan.n_regions
    assert int(plan.region_sizes().sum()) == 40
    cols = region_server_columns(plan, fleet.servers())
    seen = np.sort(np.concatenate([c for c in cols if len(c)]))
    assert np.array_equal(seen, np.arange(len(fleet.servers())))


def test_region_plan_grid_fallback_on_degenerate_coordinates():
    names = [f"s{i}" for i in range(6)]
    coords = np.zeros((6, 2))  # one distinct coordinate, 4 regions requested
    plan = build_region_plan(names, coords, 4, seed=0)
    assert plan.method == "grid"
    assert plan.site_region.shape == (6,)
    assert int(plan.region_sizes().sum()) == 6


def test_region_plan_clamps_regions_to_site_count():
    names = ["a", "b", "c"]
    coords = np.array([[0.0, 0.0], [10.0, 10.0], [20.0, 20.0]])
    plan = build_region_plan(names, coords, 8, seed=0)
    assert plan.n_regions == 3


def test_region_plan_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_region_plan(["a"], np.zeros((1, 2)), 0, seed=0)
    with pytest.raises(ValueError):
        build_region_plan(["a", "b"], np.zeros((3, 2)), 1, seed=0)


def test_neighbor_order_starts_at_self_and_permutes_regions():
    fleet, _, _ = _substrate(40, 1)
    plan = build_region_plan(fleet.sites(), fleet.site_coordinates(), 5, seed=0)
    for r in range(plan.n_regions):
        row = plan.neighbor_order[r]
        assert row[0] == r  # self is at distance zero
        assert sorted(row.tolist()) == list(range(plan.n_regions))


# --------------------------------------------------------------------------
# Hierarchical solve: determinism and degenerate cases
# --------------------------------------------------------------------------

def test_single_region_hierarchy_matches_flat_solve():
    """With one region the coarse pass is trivial and refinement IS the flat
    problem, so the hierarchy must reproduce the flat backend's answer."""
    fleet, compilation, apps = _substrate(24, 60)
    plan = build_region_plan(fleet.sites(), fleet.site_coordinates(), 1, seed=0)
    outcome = solve_hierarchical(
        compilation, apps, plan, hour=HOUR, objective=ObjectiveKind.CARBON,
        config=SolverConfig(hierarchy_regions=1), seed=0)

    problem = compilation.build_problem(apps, HOUR)
    flat = registry_solve(problem, backend="greedy",
                          objective=ObjectiveKind.CARBON)
    flat_assignment = np.full(len(apps), -1, dtype=int)
    for i, app in enumerate(apps):
        if app.app_id in flat.placements:
            flat_assignment[i] = flat.placements[app.app_id]
    assert np.array_equal(outcome.assignment, flat_assignment)
    assert outcome.n_spilled == 0


def _fresh_latency_carbon(fleet):
    from repro.carbon.service import CarbonIntensityService
    from repro.carbon.synthetic import SyntheticTraceGenerator
    from repro.datasets.electricity_maps import default_zone_catalog
    from repro.network.latency import build_latency_matrix_fast

    latency = build_latency_matrix_fast(
        fleet.sites(), fleet.site_coordinates(),
        countries=[dc.zone_id for dc in fleet])
    zone_catalog = default_zone_catalog()
    traces = SyntheticTraceGenerator(seed=0).generate_set(
        zone_catalog.get(z) for z in fleet.zone_ids())
    return latency, CarbonIntensityService(traces=traces)


def test_hierarchy_accounts_for_every_application():
    fleet, compilation, apps = _substrate(32, 100)
    plan = build_region_plan(fleet.sites(), fleet.site_coordinates(), 4, seed=0)
    outcome = solve_hierarchical(
        compilation, apps, plan, hour=HOUR, objective=ObjectiveKind.CARBON,
        config=SolverConfig(hierarchy_regions=4), seed=0)
    assert isinstance(outcome, HierarchicalResult)
    assert outcome.assignment.shape == (len(apps),)
    assert outcome.n_placed + outcome.n_unplaced == len(apps)
    n_servers = len(fleet.servers())
    placed = outcome.assignment[outcome.assignment >= 0]
    assert placed.size == outcome.n_placed
    assert np.all(placed < n_servers)
    # Region accounting covers the fleet and the routed applications.
    assert int(np.sum(outcome.region_server_counts)) == n_servers
    assert int(np.sum(outcome.region_app_counts)) \
        == len(apps) - outcome.n_coarse_unrouted


def test_overloaded_region_spills_to_neighbors():
    """Far more applications than one region can hold: refinement overflows
    and the spill pass re-routes into neighbouring regions instead of
    silently dropping demand."""
    fleet, compilation, apps = _substrate(12, 600)
    plan = build_region_plan(fleet.sites(), fleet.site_coordinates(), 3, seed=0)
    outcome = solve_hierarchical(
        compilation, apps, plan, hour=HOUR, objective=ObjectiveKind.CARBON,
        config=SolverConfig(hierarchy_regions=3), seed=0)
    assert outcome.n_placed + outcome.n_unplaced == len(apps)
    # The instance is saturated: spill must have fired (or everything the
    # regions could not take is explicitly unplaced — never lost).
    assert outcome.n_spilled > 0 or outcome.n_unplaced > 0
    # Spill respects capacity: re-running the same inputs is stable.
    again = solve_hierarchical(
        ScenarioCompilation(fleet.servers(), *_fresh_latency_carbon(fleet)),
        apps, plan, hour=HOUR, objective=ObjectiveKind.CARBON,
        config=SolverConfig(hierarchy_regions=3), seed=0)
    assert np.array_equal(outcome.assignment, again.assignment)
    assert outcome.n_spilled == again.n_spilled


@pytest.mark.parametrize("objective", list(ObjectiveKind))
def test_hierarchy_supports_every_objective(objective):
    fleet, compilation, apps = _substrate(20, 40)
    plan = build_region_plan(fleet.sites(), fleet.site_coordinates(), 3, seed=0)
    outcome = solve_hierarchical(
        compilation, apps, plan, hour=HOUR, objective=objective, alpha=0.5,
        config=SolverConfig(hierarchy_regions=3), seed=0)
    assert outcome.n_placed > 0
    assert np.isfinite(outcome.refined_objective)


def test_recorded_gap_is_refined_minus_coarse():
    fleet, compilation, apps = _substrate(20, 60)
    plan = build_region_plan(fleet.sites(), fleet.site_coordinates(), 4, seed=0)
    outcome = solve_hierarchical(
        compilation, apps, plan, hour=HOUR, objective=ObjectiveKind.CARBON,
        config=SolverConfig(hierarchy_regions=4), seed=0)
    assert outcome.objective_gap == pytest.approx(
        outcome.refined_objective - outcome.coarse_objective)


# --------------------------------------------------------------------------
# Dense-cell budget guard
# --------------------------------------------------------------------------

def test_dense_cell_guard_names_the_hierarchy_knob(monkeypatch):
    monkeypatch.setenv("CARBON_EDGE_MAX_DENSE_CELLS", "100")
    fleet, compilation, apps = _substrate(20, 40)
    with pytest.raises(ValueError) as excinfo:
        compilation.build_problem(apps, HOUR)
    message = str(excinfo.value)
    assert "hierarchy_regions" in message
    assert "--hierarchy-regions" in message
    assert "CARBON_EDGE_MAX_DENSE_CELLS" in message


def test_dense_cell_guard_spares_the_hierarchical_path(monkeypatch):
    """The same instance that the flat path refuses solves hierarchically:
    no region sub-problem crosses the budget."""
    monkeypatch.setenv("CARBON_EDGE_MAX_DENSE_CELLS", "400")
    fleet, compilation, apps = _substrate(20, 40)
    with pytest.raises(ValueError):
        compilation.build_problem(apps, HOUR)
    plan = build_region_plan(fleet.sites(), fleet.site_coordinates(), 8, seed=0)
    outcome = solve_hierarchical(
        compilation, apps, plan, hour=HOUR, objective=ObjectiveKind.CARBON,
        config=SolverConfig(hierarchy_regions=8), seed=0)
    assert outcome.n_placed > 0


def test_region_slice_is_memoised_per_column_set():
    fleet, compilation, apps = _substrate(16, 10)
    cols = np.arange(4, dtype=np.intp)
    sub1 = compilation.region_slice(cols)
    sub2 = compilation.region_slice(np.arange(4, dtype=np.intp))
    assert sub1 is sub2
    assert len(sub1.servers) == 4
    assert [s.server_id for s in sub1.servers] \
        == [fleet.servers()[j].server_id for j in range(4)]
