"""Objective tests (the flat epoch's dense views), and the placement MILP's
LP relaxation."""

import numpy as np
import pytest

from repro.core.objective import (
    ObjectiveKind,
    activation_rows,
    activation_values,
    raw_values,
)
from repro.solver.backend import SolveRequest, solution_from_assignment
from repro.solver.backends.highs import PlacementModel
from repro.solver.compile import compile_placement
from repro.utils.units import joules_to_kwh
from tests.conftest import per_app


def _coefficients(problem, kind, alpha=0.0):
    """(A, S) raw assignment and (S,) activation coefficients of a dense view."""
    dense = compile_placement(problem).dense(kind, alpha)
    return dense.raw_assign[dense.row_class], dense.activation


def test_carbon_coefficients_match_problem(central_eu_problem):
    assign, activation = _coefficients(central_eu_problem, ObjectiveKind.CARBON)
    p = central_eu_problem
    assert np.allclose(assign, joules_to_kwh(per_app(p)["energy_j"]) * p.intensity)
    assert np.allclose(activation, central_eu_problem.activation_carbon_g())


def test_energy_and_latency_coefficients(central_eu_problem):
    views = per_app(central_eu_problem)
    assign, activation = _coefficients(central_eu_problem, ObjectiveKind.ENERGY)
    assert np.allclose(assign, views["energy_j"])
    assert np.allclose(activation, central_eu_problem.activation_energy_j())
    lat_assign, lat_activation = _coefficients(central_eu_problem, ObjectiveKind.LATENCY)
    assert np.allclose(lat_assign, views["latency_ms"])
    assert np.all(lat_activation == 0.0)


def test_multi_objective_endpoints(central_eu_problem):
    carbon0, _ = _coefficients(central_eu_problem, ObjectiveKind.MULTI, alpha=0.0)
    energy1, _ = _coefficients(central_eu_problem, ObjectiveKind.MULTI, alpha=1.0)
    views = per_app(central_eu_problem)
    feasible = views["feasible_mask"]
    # alpha=0 ranks pairs by carbon; alpha=1 by energy (after normalisation the
    # ordering over feasible entries must match the raw coefficients).
    raw_carbon = (joules_to_kwh(views["energy_j"]) * central_eu_problem.intensity)[feasible]
    raw_energy = views["energy_j"][feasible]
    assert np.allclose(np.argsort(carbon0[feasible]), np.argsort(raw_carbon))
    assert np.allclose(np.argsort(energy1[feasible]), np.argsort(raw_energy))


def test_multi_objective_normalised_range(central_eu_problem):
    assign, activation = _coefficients(central_eu_problem, ObjectiveKind.MULTI, alpha=0.5)
    assert assign.min() >= -1e-9 and activation.min() >= -1e-9


def test_multi_objective_invalid_alpha(central_eu_problem):
    with pytest.raises(ValueError, match="alpha"):
        compile_placement(central_eu_problem).dense(ObjectiveKind.MULTI, 1.5)


def test_objective_dispatch(central_eu_problem):
    for kind in ObjectiveKind:
        assign, activation = _coefficients(central_eu_problem, kind, alpha=0.5)
        assert assign.shape == (central_eu_problem.n_applications, central_eu_problem.n_servers)
        assert activation.shape == (central_eu_problem.n_servers,)


def test_activation_rows_by_hand():
    # B_j x horizon: 100 W, 50 W and 200 W for 2 h are 0.2, 0.1 and 0.4 kWh.
    carbon, energy = activation_rows(np.array([100.0, 50.0, 200.0]), 2.0,
                                     np.array([300.0, 100.0, 500.0]))
    np.testing.assert_allclose(carbon, [60.0, 10.0, 200.0])
    np.testing.assert_allclose(energy, [720_000.0, 360_000.0, 1_440_000.0])


def test_raw_values_by_hand():
    energy = np.array([3.6e6, 1.8e6])
    latency = np.array([4.0, 7.0])
    intensity = np.array([250.0, 400.0])
    # Carbon is E_ij in kWh times the server's intensity.
    np.testing.assert_allclose(raw_values(ObjectiveKind.CARBON, energy, latency, intensity),
                               [250.0, 200.0])
    assert raw_values(ObjectiveKind.ENERGY, energy, latency, intensity) is energy
    assert raw_values(ObjectiveKind.LATENCY, energy, latency, intensity) is latency
    assert raw_values(ObjectiveKind.INTENSITY, energy, latency, intensity) is intensity


def test_activation_values_per_objective():
    act_carbon, act_energy = np.array([60.0, 10.0]), np.array([720_000.0, 360_000.0])
    assert activation_values(ObjectiveKind.CARBON, act_carbon, act_energy, True) is act_carbon
    assert activation_values(ObjectiveKind.ENERGY, act_carbon, act_energy, True) is act_energy
    for kind in (ObjectiveKind.LATENCY, ObjectiveKind.INTENSITY):
        np.testing.assert_array_equal(
            activation_values(kind, act_carbon, act_energy, True), [0.0, 0.0])
    # Unmanaged power charges no activation under any objective.
    for kind in ObjectiveKind:
        np.testing.assert_array_equal(
            activation_values(kind, act_carbon, act_energy, False), [0.0, 0.0])


def _model(problem, manage_power=True):
    return PlacementModel.build(SolveRequest(problem=problem,
                                             manage_power=manage_power).dense())


def test_model_structure(central_eu_problem):
    model = _model(central_eu_problem)
    dense = SolveRequest(problem=central_eu_problem).dense()
    n_pairs = int(dense.mask[dense.row_class].sum())
    # One y per server plus one x per feasible pair.
    assert len(model.cost) == central_eu_problem.n_servers + n_pairs
    assign_rows = model.constraints.lb == model.constraints.ub
    assert assign_rows.sum() == central_eu_problem.n_applications
    assert np.all(model.constraints.lb[assign_rows] == 1.0)
    # Servers already on have their y lower bound pinned to 1 (Equation 4).
    assert np.all(model.bounds.lb[n_pairs:] == 1.0)


def test_model_solution_decoding(central_eu_problem):
    request = SolveRequest(problem=central_eu_problem)
    model = PlacementModel.build(request.dense())
    result, _ = model.solve()
    assert result.x is not None
    solution = solution_from_assignment(request, model.assignment(result.x))
    assert len(solution.placements) == central_eu_problem.n_applications
    assert solution.power_on.shape == (central_eu_problem.n_servers,)
    # Every used server is powered on in the decoded solution.
    for j in solution.placements.values():
        assert solution.power_on[j] == 1.0


def test_model_without_power_management(central_eu_problem):
    model = _model(central_eu_problem, manage_power=False)
    # No activation terms on the y variables, and every server is on.
    n_pairs = len(model.apps)
    assert np.all(model.cost[n_pairs:] == 0.0)
    assert np.all(model.bounds.lb[n_pairs:] == 1.0)


def test_model_lp_relaxation_is_integral_for_assignment_structure(central_eu_problem):
    model = _model(central_eu_problem)
    relaxed, _ = model.solve(integral=False)
    assert relaxed.x is not None
    assert np.allclose(relaxed.x, np.round(relaxed.x), atol=1e-6)
