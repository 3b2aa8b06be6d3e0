"""Placement-problem construction tests."""

import numpy as np
import pytest

from repro.core.problem import INFEASIBLE_LATENCY_MS, PlacementProblem
from repro.core.solution import PlacementSolution
from repro.utils.units import joules_to_kwh
from tests.conftest import cold_build, make_apps, per_app


def test_problem_shapes(florida_problem):
    """One application per site: five classes, all in one (workload, rate)
    block."""
    p = florida_problem
    assert p.n_applications == 5 and p.n_servers == 5
    for table in (p.latency_ms, p.energy_j, p.supported, p.feasible_mask()):
        assert table.shape == (5, 5)
    assert p.intensity.shape == (5,)
    assert p.capacity.shape == (5, len(p.resource_keys))
    assert p.demand.shape == (1, 5, len(p.resource_keys))
    assert p.row_class.shape == (5,) and p.class_block.shape == (5,)
    assert np.all(p.current_power == 1.0)


def test_problem_holds_one_row_per_class(central_eu_problem, central_eu_fleet,
                                         central_eu_latency, central_eu_carbon):
    """Two applications per site share a class: the problem holds (C, S)
    class rows with C < A and one (B, S, K) demand block, and its
    per-application views are the per-object reference build's bit for bit."""
    p = central_eu_problem
    a, s, k = p.n_applications, p.n_servers, len(p.resource_keys)
    c = len(np.unique(p.row_class))
    assert c < a
    for table in (p.latency_ms, p.energy_j, p.supported, p.feasible_mask()):
        assert table.shape == (c, s)
    assert p.demand.shape == (1, s, k)
    assert p.row_class.shape == (a,) and p.class_block.shape == (c,)
    assert p.nearest_feasible_ms().shape == (a,)
    cold = cold_build(list(p.applications), central_eu_fleet.servers(),
                      central_eu_latency, central_eu_carbon, hour=12,
                      horizon_hours=24.0)
    reference = per_app(cold)
    for name, view in per_app(p).items():
        assert view.dtype == reference[name].dtype, name
        assert np.array_equal(view, reference[name]), name
    assert np.array_equal(p.nearest_feasible_ms(), cold.nearest_feasible_ms())


def test_source_site_has_zero_latency(florida_problem):
    p = florida_problem
    latency = per_app(p)["latency_ms"]
    for i, app in enumerate(p.applications):
        j = p.server_index(f"{app.source_site.replace(' ', '_')}-srv00")
        assert latency[i, j] == 0.0


def test_feasible_mask_respects_slo(florida_fleet, florida_latency, florida_carbon):
    apps = make_apps(florida_fleet.sites(), slo_ms=2.0)  # 1 ms one-way: only the local site
    p = PlacementProblem.build(apps, florida_fleet.servers(), florida_latency,
                               florida_carbon, hour=0)
    mask = p.feasible_mask()
    assert np.all(mask.sum(axis=1) == 1)


def test_unsupported_workload_marked(florida_fleet, florida_latency, florida_carbon):
    apps = make_apps(florida_fleet.sites()[:1], workload="UnknownNet")
    p = PlacementProblem.build(apps, florida_fleet.servers(), florida_latency,
                               florida_carbon, hour=0)
    assert not p.supported.any()
    assert np.all(p.latency_ms == INFEASIBLE_LATENCY_MS)
    assert not p.feasible_mask().any()


def test_operational_carbon_matches_energy_times_intensity(florida_problem):
    """Solution accounting prices each placed pair as the (A, S) formula
    does, bit for bit, over every (application, server) pair."""
    p = florida_problem
    expected = joules_to_kwh(per_app(p)["energy_j"]) * p.intensity[None, :]
    for j in range(p.n_servers):
        solution = PlacementSolution(problem=p,
                                     placements={a: j for a in p.app_ids()})
        carbon = [r.operational_carbon_g for r in solution.assignments()]
        assert carbon == expected[:, j].tolist()
        assert solution.operational_carbon_g() == sum(expected[:, j].tolist())


def test_solution_carbon_prices_only_placed_pairs(florida_problem):
    """Assignments list the placed applications in placement order, each
    priced as energy times intensity; unplaced applications add nothing."""
    p = florida_problem
    expected = joules_to_kwh(per_app(p)["energy_j"]) * p.intensity[None, :]
    ids = p.app_ids()
    solution = PlacementSolution(problem=p, placements={ids[3]: 1, ids[0]: 4},
                                 unplaced=[ids[1], ids[2], ids[4]])
    records = solution.assignments()
    assert [r.app_id for r in records] == [ids[3], ids[0]]
    assert [r.operational_carbon_g for r in records] == [expected[3, 1],
                                                         expected[0, 4]]
    assert solution.operational_carbon_g() == expected[3, 1] + expected[0, 4]
    empty = PlacementSolution(problem=p, unplaced=list(ids))
    assert empty.assignments() == [] and empty.operational_carbon_g() == 0.0


def test_activation_carbon_and_energy(florida_problem):
    p = florida_problem
    expected_energy = p.base_power_w * p.horizon_hours * 3600.0
    assert np.allclose(p.activation_energy_j(), expected_energy)
    expected_carbon = p.base_power_w * p.horizon_hours / 1000.0 * p.intensity
    assert np.allclose(p.activation_carbon_g(), expected_carbon)


def test_forecast_vs_instantaneous_intensity(florida_fleet, florida_latency, florida_carbon):
    apps = make_apps(florida_fleet.sites()[:1])
    with_forecast = PlacementProblem.build(apps, florida_fleet.servers(), florida_latency,
                                           florida_carbon, hour=10, horizon_hours=24.0,
                                           use_forecast=True)
    instantaneous = PlacementProblem.build(apps, florida_fleet.servers(), florida_latency,
                                           florida_carbon, hour=10, horizon_hours=24.0,
                                           use_forecast=False)
    # The 24-hour mean differs from the instantaneous value for a varying trace.
    assert not np.allclose(with_forecast.intensity, instantaneous.intensity)


def test_index_lookups(florida_problem):
    p = florida_problem
    assert p.app_index(p.applications[2].app_id) == 2
    assert p.server_index(p.servers[3].server_id) == 3
    with pytest.raises(KeyError):
        p.app_index("ghost")
    with pytest.raises(KeyError):
        p.server_index("ghost")


def test_empty_batches_rejected(florida_fleet, florida_latency, florida_carbon):
    with pytest.raises(ValueError):
        PlacementProblem.build([], florida_fleet.servers(), florida_latency, florida_carbon)
    with pytest.raises(ValueError):
        PlacementProblem.build(make_apps(["Miami"]), [], florida_latency, florida_carbon)


def test_shape_validation_on_raw_constructor(florida_problem):
    p = florida_problem
    fields = dict(applications=p.applications, servers=p.servers,
                  latency_ms=p.latency_ms, energy_j=p.energy_j, intensity=p.intensity,
                  resource_keys=p.resource_keys, capacity=p.capacity, demand=p.demand,
                  base_power_w=p.base_power_w, current_power=p.current_power,
                  row_class=p.row_class, class_block=p.class_block)
    PlacementProblem(**fields)
    for name, bad in (("latency_ms", np.zeros((2, 2))),
                      ("capacity", p.capacity[:, :-1]),
                      ("demand", p.demand[:, :-1]),
                      ("resource_keys", p.resource_keys[:-1]),
                      ("row_class", p.row_class[:-1]),
                      ("row_class", p.row_class[:, None]),
                      ("class_block", p.class_block[:-1]),
                      ("class_block", p.class_block[:, None])):
        with pytest.raises(ValueError, match="must have shape"):
            PlacementProblem(**{**fields, name: bad})
    for name, bad in (("row_class", -1), ("row_class", len(p.latency_ms)),
                      ("class_block", -1), ("class_block", len(p.demand))):
        index = getattr(p, name).copy()
        index[-1] = bad
        with pytest.raises(ValueError, match=f"{name} entries"):
            PlacementProblem(**{**fields, name: index})
    with pytest.raises(ValueError):
        PlacementProblem(**fields, horizon_hours=0.0)
