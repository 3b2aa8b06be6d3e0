"""Placement-solution accounting tests."""

import numpy as np
import pytest

from repro.core.policies import CarbonEdgePolicy, LatencyAwarePolicy
from repro.core.solution import PlacementSolution
from repro.utils.units import joules_to_kwh
from tests.conftest import per_app


def test_summary_keys(central_eu_problem):
    solution = CarbonEdgePolicy().timed_place(central_eu_problem)
    summary = solution.summary()
    assert set(summary) == {"placed", "unplaced", "carbon_g", "operational_carbon_g",
                            "activation_carbon_g", "energy_j", "mean_latency_ms",
                            "latency_increase_ms", "solve_time_s"}
    assert summary["placed"] == central_eu_problem.n_applications


def test_carbon_decomposition(central_eu_problem):
    solution = CarbonEdgePolicy().place(central_eu_problem)
    assert solution.total_carbon_g() == pytest.approx(
        solution.operational_carbon_g() + solution.activation_carbon_g())
    # All servers are already on, so no activation carbon.
    assert solution.activation_carbon_g() == 0.0
    assert np.all(solution.newly_activated() == 0.0)


def test_operational_carbon_matches_manual_sum(central_eu_problem):
    solution = LatencyAwarePolicy().place(central_eu_problem)
    manual = 0.0
    energy = per_app(central_eu_problem)["energy_j"]
    for app_id, j in solution.placements.items():
        i = central_eu_problem.app_index(app_id)
        manual += joules_to_kwh(energy[i, j]) * central_eu_problem.intensity[j]
    assert solution.operational_carbon_g() == pytest.approx(manual)


def test_assignments_records(central_eu_problem):
    solution = CarbonEdgePolicy().place(central_eu_problem)
    records = solution.assignments()
    assert len(records) == solution.n_placed
    for record in records:
        assert record.server_id == solution.server_of(record.app_id)
        assert record.operational_carbon_g >= 0.0


def test_apps_per_server_and_site_consistency(central_eu_problem):
    solution = CarbonEdgePolicy().place(central_eu_problem)
    assert sum(solution.apps_per_server().values()) == solution.n_placed
    assert sum(solution.apps_per_site().values()) == solution.n_placed


def test_latency_metrics(central_eu_problem):
    solution = CarbonEdgePolicy().place(central_eu_problem)
    assert solution.max_latency_ms() >= solution.mean_latency_ms() >= 0.0
    assert solution.latency_increase_ms() >= 0.0


def test_server_of_unknown_app(central_eu_problem):
    solution = CarbonEdgePolicy().place(central_eu_problem)
    with pytest.raises(KeyError):
        solution.server_of("ghost")


def test_empty_solution_metrics(central_eu_problem):
    solution = PlacementSolution(problem=central_eu_problem,
                                 unplaced=[a.app_id for a in central_eu_problem.applications])
    assert solution.n_placed == 0
    assert not solution.all_placed
    assert solution.total_carbon_g() == 0.0
    assert solution.mean_latency_ms() == 0.0
    assert solution.latency_increase_ms() == 0.0


def test_power_on_shape_validation(central_eu_problem):
    with pytest.raises(ValueError):
        PlacementSolution(problem=central_eu_problem, power_on=np.ones(2))
