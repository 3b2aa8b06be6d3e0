"""Feasibility-filter and solution-validation tests."""

import numpy as np
import pytest

from repro.core.filters import capacity_fits, filter_feasible_servers
from repro.core.problem import PlacementProblem
from repro.core.solution import PlacementSolution
from repro.core.validation import ValidationError, validate_solution
from tests.conftest import make_apps


def test_filter_matches_feasible_mask(central_eu_problem):
    report = filter_feasible_servers(central_eu_problem, check_capacity=False)
    assert np.array_equal(report.mask, central_eu_problem.feasible_mask())
    assert report.unplaceable == []
    assert report.n_candidate_pairs == int(central_eu_problem.feasible_mask().sum())


def test_filter_capacity_prunes_oversized_demands(florida_fleet, florida_latency, florida_carbon):
    # 10000 rps of YOLOv4 needs far more GPU memory than one A2 offers.
    apps = make_apps(["Miami"], workload="YOLOv4", rate_rps=10_000.0)
    problem = PlacementProblem.build(apps, florida_fleet.servers(), florida_latency,
                                     florida_carbon, hour=0)
    without_capacity = filter_feasible_servers(problem, check_capacity=False)
    with_capacity = filter_feasible_servers(problem, check_capacity=True)
    assert without_capacity.n_candidate_pairs > 0
    assert with_capacity.n_candidate_pairs == 0
    assert with_capacity.unplaceable == [0]


def test_capacity_fit_tolerates_residue_and_a_zero_width_key_axis():
    """A demand that fills what float subtraction left (0.3 - 0.1 is just
    under 0.2) fits within the slack, a larger one does not, and a
    zero-width resource axis fits everywhere."""
    left = np.array([0.3 - 0.1, 1.0])
    assert left[0] < 0.2
    assert capacity_fits(np.array([0.2, 1.0]), left)
    assert not capacity_fits(np.array([0.2, 1.0 + 1e-6]), left)
    fits = capacity_fits(np.zeros((2, 3, 0)), np.zeros((3, 0)))
    assert fits.shape == (2, 3) and fits.all()


def test_filter_useful_servers(central_eu_problem):
    report = filter_feasible_servers(central_eu_problem)
    assert set(report.useful_servers) <= set(range(central_eu_problem.n_servers))
    assert len(report.useful_servers) >= 1


def test_validate_accepts_trivial_local_placement(central_eu_problem):
    placements = {}
    for i, app in enumerate(central_eu_problem.applications):
        j = int(np.argmin(central_eu_problem.latency_ms[i]))
        placements[app.app_id] = j
    solution = PlacementSolution(problem=central_eu_problem, placements=placements)
    assert validate_solution(solution) == []


def test_validate_detects_latency_violation(central_eu_fleet, central_eu_latency,
                                            central_eu_carbon):
    # Place an app on the farthest server while its SLO only allows the local one.
    apps = make_apps(["Bern"], slo_ms=1.0)
    problem = PlacementProblem.build(apps, central_eu_fleet.servers(), central_eu_latency,
                                     central_eu_carbon, hour=0)
    far = int(np.argmax(problem.latency_ms[0]))
    solution = PlacementSolution(problem=problem, placements={apps[0].app_id: far})
    with pytest.raises(ValidationError, match="latency"):
        validate_solution(solution)


def test_validate_detects_missing_application(central_eu_problem):
    solution = PlacementSolution(problem=central_eu_problem, placements={})
    violations = validate_solution(solution, strict=False)
    assert any("neither placed nor marked unplaced" in v for v in violations)


def test_validate_detects_capacity_violation(florida_fleet, florida_latency, florida_carbon):
    apps = make_apps(["Miami"], workload="Sci", n_per_site=15)  # 15 * 4 cores > 40 cores
    problem = PlacementProblem.build(apps, florida_fleet.servers(), florida_latency,
                                     florida_carbon, hour=0)
    miami = problem.server_index("Miami-srv00")
    solution = PlacementSolution(problem=problem,
                                 placements={a.app_id: miami for a in apps})
    violations = validate_solution(solution, strict=False)
    assert any("over capacity" in v for v in violations)


def test_validate_detects_powered_off_host(central_eu_problem):
    p = central_eu_problem
    solution = PlacementSolution(problem=p,
                                 placements={p.applications[0].app_id: 0},
                                 power_on=np.zeros(p.n_servers),
                                 unplaced=[a.app_id for a in p.applications[1:]])
    violations = validate_solution(solution, strict=False)
    assert any("powered off" in v for v in violations)
    # Switching off an already-on server also violates power-state consistency.
    assert any("powers it off" in v for v in violations)


def test_validate_detects_unknown_placement(central_eu_problem):
    solution = PlacementSolution(problem=central_eu_problem,
                                 placements={"ghost": 0},
                                 unplaced=[a.app_id for a in central_eu_problem.applications])
    violations = validate_solution(solution, strict=False)
    assert any("unknown applications" in v for v in violations)
