"""Solution validation against the placement constraints (Equations 1–5).

Every experiment validates the solutions it reports, so a policy or solver bug
cannot silently produce infeasible placements that look like savings.
"""

from __future__ import annotations

import numpy as np

from repro.core.filters import capacity_fits
from repro.core.problem import PlacementProblem
from repro.core.solution import PlacementSolution


class ValidationError(AssertionError):
    """Raised when a placement solution violates a constraint."""


def _amounts(keys: tuple[str, ...], row: np.ndarray) -> str:
    """``(key=amount, ...)`` of one resource row, for violation messages."""
    return "(" + ", ".join(f"{k}={v:g}" for k, v in zip(keys, row.tolist())) + ")"


def validate_solution(solution: PlacementSolution, strict: bool = True) -> list[str]:
    """Check a solution against its problem's constraints.

    Parameters
    ----------
    solution:
        The solution to validate.
    strict:
        Raise :class:`ValidationError` on the first set of violations instead
        of returning them.

    Returns
    -------
    list[str]
        Human-readable violation descriptions (empty when valid).
    """
    problem: PlacementProblem = solution.problem
    violations: list[str] = []
    feasible = problem.feasible_mask()

    # Equation 3: each application placed at most once, and every application is
    # either placed or listed as unplaced.
    placed_ids = set(solution.placements)
    unplaced_ids = set(solution.unplaced)
    all_ids = set(problem.app_ids())
    if placed_ids & unplaced_ids:
        violations.append(f"applications both placed and unplaced: {placed_ids & unplaced_ids}")
    missing = all_ids - placed_ids - unplaced_ids
    if missing:
        violations.append(f"applications neither placed nor marked unplaced: {sorted(missing)}")
    unknown = placed_ids - all_ids
    if unknown:
        violations.append(f"placements for unknown applications: {sorted(unknown)}")

    # Known placements as index arrays so Equations 1 and 2 check in bulk.
    known = [(app_id, j) for app_id, j in solution.placements.items() if app_id in all_ids]
    if known:
        i_arr = problem.app_indices([app_id for app_id, _ in known])
        j_arr = np.fromiter((j for _, j in known), dtype=np.intp, count=len(known))
    else:
        i_arr = j_arr = np.zeros(0, dtype=np.intp)
    c_arr = problem.row_class[i_arr]

    # Equation 2 (latency / support feasibility of every chosen pair).
    for pos in np.flatnonzero(~feasible[c_arr, j_arr]):
        app_id, j = known[int(pos)]
        i, c = int(i_arr[pos]), int(c_arr[pos])
        violations.append(
            f"{app_id} placed on {problem.servers[j].server_id} violating its latency SLO "
            f"({2 * problem.latency_ms[c, j]:.2f} ms RTT > {problem.applications[i].latency_slo_ms} ms)")

    # Equation 1: per-server capacity across every resource dimension, summed
    # over the placed pairs' block demand rows.
    if known:
        capacity = problem.capacity
        totals = np.zeros_like(capacity)
        np.add.at(totals, j_arr, problem.demand[problem.class_block[c_arr], j_arr])
        keys = problem.resource_keys
        for j in np.flatnonzero(~capacity_fits(totals, capacity)).tolist():
            violations.append(
                f"server {problem.servers[j].server_id} over capacity: demand "
                f"{_amounts(keys, totals[j])} > available {_amounts(keys, capacity[j])}")

    # Equation 5: assignments require powered-on servers.
    used_servers = set(solution.placements.values())
    for j in used_servers:
        if solution.power_on[j] < 0.5:
            violations.append(
                f"server {problem.servers[j].server_id} hosts applications but is powered off")

    # Equation 4: power-state consistency (no active server switched off).
    switched_off = np.flatnonzero((problem.current_power > 0.5) & (solution.power_on < 0.5))
    for j in switched_off:
        violations.append(
            f"server {problem.servers[int(j)].server_id} was on before placement "
            "but the solution powers it off")

    if violations and strict:
        raise ValidationError("; ".join(violations))
    return violations
