"""Objective construction for the placement MILP.

Three objectives are supported, matching the paper:

* **carbon** (Equation 6): operational emissions of every assignment plus the
  activation emissions of newly powered-on servers;
* **energy**: the same structure with energy instead of emissions (the
  Energy-aware baseline of Section 6.1.3);
* **multi-objective** (Equation 8): ``α·p + (1-α)·f`` over min-max normalised
  energy (p) and carbon (f) coefficients, which is how the paper explores the
  carbon-energy trade-off in Section 6.4.
"""

from __future__ import annotations

from enum import Enum

import numpy as np

from repro.core.problem import PlacementProblem


class ObjectiveKind(Enum):
    """Which objective the placement model minimises."""

    CARBON = "carbon"
    ENERGY = "energy"
    MULTI = "multi"
    LATENCY = "latency"
    INTENSITY = "intensity"


def _at_rows(matrix: np.ndarray, rows: np.ndarray | None) -> np.ndarray:
    """``matrix`` restricted to ``rows`` (the whole matrix for ``None``)."""
    return matrix if rows is None else matrix[rows]


# Every builder takes optional ``rows``: the assignment coefficients of those
# rows of the problem only (one representative per application class, say).
# Each coefficient is an elementwise function of its row, so the values are
# the full matrix's rows, bit for bit.


def carbon_objective_coefficients(problem: PlacementProblem,
                                  rows: np.ndarray | None = None
                                  ) -> tuple[np.ndarray, np.ndarray]:
    """(A,S) assignment coefficients and (S,) activation coefficients, in grams CO2eq."""
    return problem.operational_carbon_g(rows), problem.activation_carbon_g()


def energy_objective_coefficients(problem: PlacementProblem,
                                  rows: np.ndarray | None = None
                                  ) -> tuple[np.ndarray, np.ndarray]:
    """(A,S) assignment coefficients and (S,) activation coefficients, in joules."""
    return _at_rows(problem.energy_j, rows).copy(), problem.activation_energy_j()


def latency_objective_coefficients(problem: PlacementProblem,
                                   rows: np.ndarray | None = None
                                   ) -> tuple[np.ndarray, np.ndarray]:
    """(A,S) assignment coefficients (one-way ms) and zero activation coefficients."""
    return _at_rows(problem.latency_ms, rows).copy(), np.zeros(problem.n_servers)


def intensity_objective_coefficients(problem: PlacementProblem,
                                     rows: np.ndarray | None = None
                                     ) -> tuple[np.ndarray, np.ndarray]:
    """(A,S) coefficients equal to the hosting zone's intensity Ī_j (Section 6.1.3).

    The Intensity-aware baseline's objective: chase the greenest zone,
    ignoring how much energy the application actually consumes there.
    """
    n_rows = problem.n_applications if rows is None else len(rows)
    assignment = np.broadcast_to(problem.intensity[None, :],
                                 (n_rows, problem.n_servers)).copy()
    return assignment, np.zeros(problem.n_servers)


def _minmax_normalize(assignment: np.ndarray, activation: np.ndarray,
                      feasible: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Min-max normalise coefficients jointly over the feasible entries to [0, 1]."""
    pool = assignment[feasible] if feasible.any() else assignment.ravel()
    pool = np.concatenate([pool.ravel(), activation.ravel()])
    lo, hi = float(pool.min()), float(pool.max())
    span = hi - lo
    if span <= 0:
        return np.zeros_like(assignment), np.zeros_like(activation)
    return (assignment - lo) / span, (activation - lo) / span


def multi_objective_coefficients(problem: PlacementProblem, alpha: float,
                                 rows: np.ndarray | None = None
                                 ) -> tuple[np.ndarray, np.ndarray]:
    """Equation 8 coefficients: ``α·p̂ + (1-α)·f̂`` with min-max normalised p and f.

    ``alpha = 0`` is the vanilla CarbonEdge (carbon-only) objective; ``alpha = 1``
    is the Energy-aware objective. The normalisation pools the given
    ``rows``, so they must hold every distinct row of the problem (one per
    application class) for the minimum and maximum to be the full matrix's.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError(f"alpha must be in [0, 1], got {alpha}")
    feasible = _at_rows(problem.feasible_mask(), rows)
    carbon_a, carbon_s = carbon_objective_coefficients(problem, rows)
    energy_a, energy_s = energy_objective_coefficients(problem, rows)
    carbon_a, carbon_s = _minmax_normalize(carbon_a, carbon_s, feasible)
    energy_a, energy_s = _minmax_normalize(energy_a, energy_s, feasible)
    assignment = alpha * energy_a + (1.0 - alpha) * carbon_a
    activation = alpha * energy_s + (1.0 - alpha) * carbon_s
    return assignment, activation


def tie_break_matrix(problem: PlacementProblem, kind: ObjectiveKind,
                     rows: np.ndarray | None = None) -> np.ndarray:
    """(A,S) documented default tie-break matrix for an objective (``rows``
    as for the coefficient builders).

    One-way latency for every objective except the latency objective itself
    (greener-but-equidistant choices prefer proximity); the latency objective
    tie-breaks by operational carbon so equal-latency choices stay stable
    and prefer the greener server. The single source of this rule — the MILP
    builder and the dense backends both consume it, so every backend
    minimises the same augmented objective.
    """
    if kind is ObjectiveKind.LATENCY:
        return problem.operational_carbon_g(rows)
    return _at_rows(problem.latency_ms, rows)


def apply_tie_break(assign: np.ndarray, mask: np.ndarray,
                    tie: np.ndarray) -> np.ndarray:
    """``assign`` plus an epsilon perturbation of ``tie`` over the mask.

    The epsilon is scaled so the perturbation never exceeds ``1e-5`` of the
    largest feasible assignment cost — enough to order objective-equal
    candidates deterministically, negligible against the real objective.
    """
    feasible_vals = assign[mask] if mask.any() else assign
    scale = float(np.abs(feasible_vals).max()) if feasible_vals.size else 1.0
    tie_scale = float(tie[mask].max()) if mask.any() else 1.0
    if scale > 0 and tie_scale > 0:
        epsilon = 1e-5 * scale / tie_scale
        return assign + epsilon * np.where(mask, tie, 0.0)
    return assign


def objective_coefficients(problem: PlacementProblem, kind: ObjectiveKind,
                           alpha: float = 0.0, rows: np.ndarray | None = None
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Dispatch to the requested objective's coefficient builder."""
    if kind is ObjectiveKind.CARBON:
        return carbon_objective_coefficients(problem, rows)
    if kind is ObjectiveKind.ENERGY:
        return energy_objective_coefficients(problem, rows)
    if kind is ObjectiveKind.LATENCY:
        return latency_objective_coefficients(problem, rows)
    if kind is ObjectiveKind.INTENSITY:
        return intensity_objective_coefficients(problem, rows)
    if kind is ObjectiveKind.MULTI:
        return multi_objective_coefficients(problem, alpha, rows)
    raise ValueError(f"unknown objective kind {kind!r}")
