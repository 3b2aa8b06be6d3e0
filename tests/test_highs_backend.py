"""Tests for the exact tier: the Equations 1–7 MILP solved by HiGHS.

* **Brute-force oracle** — on small seeded instances, the ``highs``
  placement's tie-broken objective (assignment cost plus activation, under
  capacity) equals exhaustive enumeration over the mask candidates, and its
  proven bound never exceeds that optimum.
* **Pins** — the retired hand-rolled branch-and-bound backend's answers,
  recorded before it was deleted, on the metamorphic grid, the small fig17
  instances and the MULTI instances where HiGHS needs its objective
  normalised. A pin holds only what swapping applications of identical class
  cannot change: the tie-broken objective (10 significant digits, as
  :mod:`tests.test_golden_digests` rounds) and the SHA-256 of each server's
  sorted list of application classes.
* **Contracts** — the recorded bound and parameters, the registry floor under
  warm starts and tight budgets, and the unplaceable and capacity-infeasible
  edge cases.
"""

from __future__ import annotations

import functools
import hashlib
import json

import numpy as np
import pytest

from repro.core.objective import ObjectiveKind
from repro.core.problem import PlacementProblem
from repro.core.validation import validate_solution
from repro.experiments.fig17_scalability import _build_problem
from repro.solver import registry
from repro.solver.backend import SolveRequest, raw_objective_value
from repro.solver.compile import DenseCosts

from tests.test_backend_metamorphic import _random_problem
from tests.test_solver_backends import _FakeServer


def _assignment(problem: PlacementProblem, solution) -> np.ndarray:
    """(A,) server index per application, -1 when unplaced."""
    out = np.full(problem.n_applications, -1)
    for app_id, j in solution.placements.items():
        out[problem.app_index(app_id)] = j
    return out


def _tie_broken_objective(dense: DenseCosts, assignment: np.ndarray) -> float:
    """The objective every backend minimises: tie-broken assignment cost plus
    the activation of servers the placement newly switches on."""
    placed = np.flatnonzero(assignment >= 0)
    used = np.zeros(dense.mask.shape[1], dtype=bool)
    used[assignment[placed]] = True
    return float(dense.cost[dense.row_class[placed], assignment[placed]].sum()) + \
        float(dense.activation[used & ~dense.initially_on].sum())


def _brute_force(dense: DenseCosts) -> float:
    """Minimum tie-broken objective over every capacity-feasible choice of one
    mask candidate per placeable application (``inf`` when none fits)."""
    mask = dense.mask[dense.row_class]
    rows = [i for i in range(len(mask)) if mask[i].any()]
    if not rows:
        return 0.0
    grids = np.meshgrid(*[np.flatnonzero(mask[i]) for i in rows], indexing="ij")
    combos = np.stack([grid.ravel() for grid in grids], axis=1)  # (N, placeable)
    n_combos, n_servers = len(combos), dense.mask.shape[1]
    load = np.zeros((n_combos, n_servers, len(dense.keys)))
    used = np.zeros((n_combos, n_servers), dtype=bool)
    every = np.arange(n_combos)
    cost = np.zeros(n_combos)
    for col, i in enumerate(rows):
        j, c = combos[:, col], dense.row_class[i]
        load[every, j] += dense.demand[dense.class_block[c], j]
        used[every, j] = True
        cost += dense.cost[c, j]
    fits = np.all(load <= dense.capacity + 1e-9, axis=(1, 2))
    total = cost + (used & ~dense.initially_on) @ dense.activation
    return float(np.where(fits, total, np.inf).min())


def _unit_problem(n_apps: int, n_servers: int, latency_ms: float = 0.0) -> PlacementProblem:
    """Unit-demand apps on capacity-2 servers of rising intensity, all off."""
    from repro.workloads.application import Application

    apps = [Application(app_id=f"a{i}", workload="ResNet50", source_site="s0",
                        latency_slo_ms=100.0, request_rate_rps=1.0 + i)
            for i in range(n_apps)]
    return PlacementProblem(
        applications=apps, servers=[_FakeServer(f"srv{j}") for j in range(n_servers)],
        latency_ms=np.full((n_apps, n_servers), latency_ms),
        energy_j=np.full((n_apps, n_servers), 3.6e6),
        intensity=np.linspace(100.0, 300.0, n_servers),
        resource_keys=("cpu_cores",),
        capacity=np.full((n_servers, 1), 2.0),
        demand=np.ones((n_apps, n_servers, 1)),
        base_power_w=np.full(n_servers, 100.0),
        current_power=np.zeros(n_servers),
        horizon_hours=1.0)


def _assert_matches_brute_force(request: SolveRequest) -> None:
    dense = request.dense()
    optimum = _brute_force(dense)
    solution = registry.get_backend("highs").solve(request)
    assert solution is not None
    validate_solution(solution, strict=True)
    objective = _tie_broken_objective(dense, _assignment(request.problem, solution))
    tol = 1e-9 * max(1.0, abs(optimum))
    assert abs(objective - optimum) <= tol, (objective, optimum)
    assert solution.solver_bound <= optimum + tol


# -- brute-force oracle -------------------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_highs_matches_bruteforce_on_random_instances(seed):
    for n_apps in (3, 4, 5):
        problem = _random_problem(seed, n_apps)
        for objective, alpha in ((ObjectiveKind.CARBON, 0.0), (ObjectiveKind.ENERGY, 0.0),
                                 (ObjectiveKind.MULTI, 0.5)):
            for manage_power in (True, False):
                _assert_matches_brute_force(SolveRequest(
                    problem=problem, objective=objective, alpha=alpha,
                    manage_power=manage_power))


@pytest.mark.parametrize("n_apps,n_servers", [(4, 2), (5, 3), (6, 3)])
@pytest.mark.parametrize("manage_power", [True, False])
def test_highs_matches_bruteforce_on_capacity_tight_instances(n_apps, n_servers,
                                                              manage_power):
    _assert_matches_brute_force(SolveRequest(problem=_unit_problem(n_apps, n_servers),
                                             manage_power=manage_power))


# -- pins recorded from the retired branch-and-bound backend --------------------------

def _pin_grid() -> dict[str, tuple]:
    """label -> (problem factory, objective, alpha, manage_power)."""
    grid: dict[str, tuple] = {}
    for seed, n_apps in [(0, 3), (0, 4), (1, 4), (1, 5), (2, 5), (2, 6), (3, 6),
                         (4, 5), (4, 6)]:
        grid[f"metamorphic-{seed}-{n_apps}"] = (
            functools.partial(_random_problem, seed, n_apps), ObjectiveKind.CARBON,
            0.0, True)
    for n_servers, n_apps in [(20, 8), (40, 20), (60, 20)]:
        for objective in (ObjectiveKind.CARBON, ObjectiveKind.ENERGY):
            for manage_power in (True, False):
                grid[f"fig17-{n_servers}x{n_apps}-{objective.name}-"
                     f"{'power' if manage_power else 'on'}"] = (
                    functools.partial(_build_problem, n_servers, n_apps, 7), objective, 0.0,
                    manage_power)
    for seed in (0, 1):
        for alpha in (0.25, 0.5, 0.75):
            for manage_power in (True, False):
                grid[f"fig17-40x20-seed{seed}-MULTI-{alpha}-"
                     f"{'power' if manage_power else 'on'}"] = (
                    functools.partial(_build_problem, 40, 20, seed), ObjectiveKind.MULTI, alpha,
                    manage_power)
    return grid


#: label -> (tie-broken objective, SHA-256 of each server's sorted class rows).
PINS: dict[str, tuple[float, str]] = {
    "metamorphic-0-3": (0.3148009199,
        "c7aba8f6a23e1c44fe1ae4b46b83db0c5ae4c40a9f1e3dde2e478f97e6060cc1"),
    "metamorphic-0-4": (0.5796274232,
        "f0fff83f530fc762b76ac7fe84202f2590b899b9978aff81d086accedd19fe20"),
    "metamorphic-1-4": (9.78355321,
        "0749373c44b39e76bac41d78f8a0528a48bc2efd409f15ecfc49364f26e4af9f"),
    "metamorphic-1-5": (10.17012739,
        "85310fd647ec4c8fed1ca1a6617c7c5974ed106c0a1c71b4a66f66d865709542"),
    "metamorphic-2-5": (3.141857011,
        "9c216b21deaebe923e79723fa028a5df2479dd4ebaf89c3eba2842ba3288922f"),
    "metamorphic-2-6": (4.85183432,
        "a43cd5b9381068b544dcae1de977d543951ed307b860771c9016453fdde3db9b"),
    "metamorphic-3-6": (5.551529728,
        "ce0642f1d843aa629af3b246fd828405c44f0aa8cf96072396badc8e37cfdff0"),
    "metamorphic-4-5": (11.47034891,
        "2364d0ab00ccdcb77fac07f336402e5977046ec31ce7f6382a2f1b466c7b6184"),
    "metamorphic-4-6": (52.35098874,
        "ade777b103230644d922c3367e2efd633fdff41f48a3c8dcddb50cd483ea4f3f"),
    "fig17-20x8-CARBON-power": (3.446783098,
        "6ae9a9c171ad02cf85f4ce89b65770cb52661ea64faaa6d5f4610ec55da99936"),
    "fig17-20x8-CARBON-on": (3.446783098,
        "6ae9a9c171ad02cf85f4ce89b65770cb52661ea64faaa6d5f4610ec55da99936"),
    "fig17-20x8-ENERGY-power": (66240.0,
        "df6ce9e276a9aafd92d8ee3fcf6880e3377ac84b582f8eae50999ceec33178c3"),
    "fig17-20x8-ENERGY-on": (66240.0,
        "df6ce9e276a9aafd92d8ee3fcf6880e3377ac84b582f8eae50999ceec33178c3"),
    "fig17-40x20-CARBON-power": (5.208299227,
        "8b555585e52ff0fb34e81401082acbe1cb23851460f80b2c7ffec093a29ebd96"),
    "fig17-40x20-CARBON-on": (5.208299227,
        "8b555585e52ff0fb34e81401082acbe1cb23851460f80b2c7ffec093a29ebd96"),
    "fig17-40x20-ENERGY-power": (165600.0,
        "372f2da3ed560d0f6a2e4e1ae9507f7423f5ca60549e0dde408cf8904a527c57"),
    "fig17-40x20-ENERGY-on": (165600.0,
        "372f2da3ed560d0f6a2e4e1ae9507f7423f5ca60549e0dde408cf8904a527c57"),
    "fig17-60x20-CARBON-power": (4.35709548,
        "85f080d52898d37758713559deb5f4da05371cf8a00a1e25d1dbc60f4483cf8d"),
    "fig17-60x20-CARBON-on": (4.35709548,
        "85f080d52898d37758713559deb5f4da05371cf8a00a1e25d1dbc60f4483cf8d"),
    "fig17-60x20-ENERGY-power": (165600.0,
        "e06b7a39cd9b35f5fb84cf13b159e310748edf512a0514922d0e93adb559b008"),
    "fig17-60x20-ENERGY-on": (165600.0,
        "e06b7a39cd9b35f5fb84cf13b159e310748edf512a0514922d0e93adb559b008"),
    "fig17-40x20-seed0-MULTI-0.25-power": (0.04357671939,
        "c82f1556d046703e5267c00bca3b631180c690e66cbc86941059fda78c7c08b4"),
    "fig17-40x20-seed0-MULTI-0.25-on": (0.04357671939,
        "c82f1556d046703e5267c00bca3b631180c690e66cbc86941059fda78c7c08b4"),
    "fig17-40x20-seed0-MULTI-0.5-power": (0.02905114626,
        "c82f1556d046703e5267c00bca3b631180c690e66cbc86941059fda78c7c08b4"),
    "fig17-40x20-seed0-MULTI-0.5-on": (0.02905114626,
        "c82f1556d046703e5267c00bca3b631180c690e66cbc86941059fda78c7c08b4"),
    "fig17-40x20-seed0-MULTI-0.75-power": (0.01452557313,
        "c82f1556d046703e5267c00bca3b631180c690e66cbc86941059fda78c7c08b4"),
    "fig17-40x20-seed0-MULTI-0.75-on": (0.01452557313,
        "c82f1556d046703e5267c00bca3b631180c690e66cbc86941059fda78c7c08b4"),
    "fig17-40x20-seed1-MULTI-0.25-power": (0.03643508149,
        "ab938ba2c019b0f987be389477e76e2c082a512567892e0da30d22cbb045d609"),
    "fig17-40x20-seed1-MULTI-0.25-on": (0.03643508149,
        "ab938ba2c019b0f987be389477e76e2c082a512567892e0da30d22cbb045d609"),
    "fig17-40x20-seed1-MULTI-0.5-power": (0.02429005433,
        "ab938ba2c019b0f987be389477e76e2c082a512567892e0da30d22cbb045d609"),
    "fig17-40x20-seed1-MULTI-0.5-on": (0.02429005433,
        "ab938ba2c019b0f987be389477e76e2c082a512567892e0da30d22cbb045d609"),
    "fig17-40x20-seed1-MULTI-0.75-power": (0.01214502716,
        "ab938ba2c019b0f987be389477e76e2c082a512567892e0da30d22cbb045d609"),
    "fig17-40x20-seed1-MULTI-0.75-on": (0.01214502716,
        "ab938ba2c019b0f987be389477e76e2c082a512567892e0da30d22cbb045d609"),
}


def _class_digest(problem: PlacementProblem, assignment: np.ndarray) -> str:
    """SHA-256 of each loaded server's sorted application classes."""
    loads: dict[int, list] = {}
    for app, j in zip(problem.applications, assignment.tolist()):
        if j >= 0:
            loads.setdefault(j, []).append([
                app.workload, app.source_site, float(format(app.latency_slo_ms, ".10g")),
                float(format(app.request_rate_rps, ".10g")),
                float(format(app.duration_hours, ".10g"))])
    blob = json.dumps([[j, sorted(rows)] for j, rows in sorted(loads.items())])
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def test_every_pin_has_an_instance():
    assert set(PINS) == set(_pin_grid())


@pytest.mark.parametrize("label", list(PINS))
def test_highs_reproduces_branch_and_bound_pins(label):
    factory, objective, alpha, manage_power = _pin_grid()[label]
    problem = factory()
    request = SolveRequest(problem=problem, objective=objective, alpha=alpha,
                           manage_power=manage_power)
    solution = registry.get_backend("highs").solve(request)
    assert solution is not None
    validate_solution(solution, strict=True)
    assignment = _assignment(problem, solution)
    objective_value = float(format(_tie_broken_objective(request.dense(), assignment), ".10g"))
    assert (objective_value, _class_digest(problem, assignment)) == PINS[label]


# -- bound, parameters and the registry floor -----------------------------------------

def test_exact_tier_records_bound_and_params():
    problem = _random_problem(seed=1, n_apps=4)
    solution = registry.solve(problem, backend="highs", time_budget_s=20.0)
    validate_solution(solution)
    assert solution.backend_name == "highs"
    assert np.isfinite(solution.solver_bound)
    params = solution.solver_params
    assert params["backend"] == "highs"
    assert params["mip_rel_gap"] == 0.0
    assert "status" in params
    # The bound is on the tie-broken objective every backend minimises; the
    # raw objective of the same placement can sit below it.
    request = SolveRequest(problem=problem)
    objective = _tie_broken_objective(request.dense(), _assignment(problem, solution))
    assert solution.solver_bound <= objective + 1e-9 * max(1.0, abs(objective))
    assert solution.solver_gap == 0.0
    assert solution.solver_bound == pytest.approx(objective, rel=1e-9)
    assert raw_objective_value(request, solution) < solution.solver_bound


def test_warm_hinted_solve_never_worse_than_hint():
    problem = _random_problem(seed=3, n_apps=6)
    request = SolveRequest(problem=problem)
    hint = registry.get_backend("heuristic").solve(request)
    warm = registry.solve(problem, backend="highs", time_budget_s=20.0,
                          warm_start=dict(hint.placements))
    validate_solution(warm)
    assert warm.n_placed >= hint.n_placed
    assert raw_objective_value(request, warm) <= \
        raw_objective_value(request, hint) + 1e-6


def test_tight_budget_still_returns_an_incumbent():
    problem = _random_problem(seed=2, n_apps=6)
    solution = registry.solve(problem, backend="highs", time_budget_s=0.5)
    validate_solution(solution)
    # Either the exact incumbent or the registry's heuristic fallback —
    # always a usable solution.
    assert solution.all_placed or solution.construction_truncated


# -- edge cases ------------------------------------------------------------------------

def test_unplaceable_applications_are_left_unplaced():
    problem = _unit_problem(3, 2, latency_ms=1e3)  # beyond every SLO
    solution = registry.get_backend("highs").solve(SolveRequest(problem=problem))
    assert solution is not None
    validate_solution(solution, strict=True)
    assert solution.n_placed == 0
    assert sorted(solution.unplaced) == ["a0", "a1", "a2"]
    assert solution.solver_gap == 0.0


def test_capacity_infeasible_instance_falls_back_to_heuristic():
    problem = _unit_problem(7, 3)  # 7 unit apps, room for 6
    assert registry.get_backend("highs").solve(SolveRequest(problem=problem)) is None
    solution = registry.solve(problem, backend="highs")
    validate_solution(solution)
    assert solution.backend_name == "heuristic"
    assert solution.n_placed == 6
