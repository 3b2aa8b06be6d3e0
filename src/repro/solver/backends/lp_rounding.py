"""LP-relaxation + randomized-rounding backend.

Solve the LP relaxation of the placement MILP once — the ``highs`` backend's
model (:class:`~repro.solver.backends.highs.PlacementModel`) with
integrality off — and when it comes back fractional, round it. Each
*randomized rounding* trial samples every application's server from its
fractional assignment distribution, repairs capacity conflicts by falling back
to the largest-fraction server that still fits, and the best feasible trial
(by placed count, then augmented cost) wins. For assignment-like LPs the
relaxation is integral most of the time, so the rounding machinery only runs
on the genuinely fractional instances where a single deterministic rounding
is weakest.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.filters import capacity_fits
from repro.core.solution import PlacementSolution
from repro.solver.backend import SolveRequest, solution_from_assignment
from repro.solver.backends.highs import PlacementModel
from repro.solver.compile import DenseCosts
from repro.solver.registry import register_backend

#: Rounding trials when the time budget does not cut them short.
ROUNDING_TRIALS: int = 16

#: Rounding budget when the request carries none.
DEFAULT_ROUNDING_BUDGET_S: float = 5.0


@register_backend("lp-round", aliases=("lp-rounding", "rounding"))
@dataclass
class LPRandomizedRoundingBackend:
    """One LP relaxation followed by randomized rounding with repair."""

    name: str = "lp-round"

    def solve(self, request: SolveRequest) -> PlacementSolution | None:
        model = PlacementModel.build(request.dense())
        relaxed, _ = model.solve(integral=False)
        if relaxed.x is None:
            return None
        if np.all(np.abs(relaxed.x - np.round(relaxed.x)) <= 1e-6):
            solution = solution_from_assignment(request, model.assignment(relaxed.x))
            solution.solver_gap = 0.0
            return solution
        return self._round(request, model.fractions(relaxed.x))

    # -- randomized rounding ----------------------------------------------------

    def _round(self, request: SolveRequest,
               fractions: np.ndarray) -> PlacementSolution | None:
        dense = request.dense()
        rng = np.random.default_rng(request.seed)
        deadline = request.deadline(DEFAULT_ROUNDING_BUDGET_S)

        best: np.ndarray | None = None
        best_key: tuple[float, float] | None = None
        for trial in range(ROUNDING_TRIALS):
            if best is not None and time.monotonic() >= deadline:
                break
            # Trial 0 is deterministic (argmax fraction), the rest sample.
            assignment = self._one_trial(dense, fractions, rng, sample=trial > 0)
            placed = int((assignment >= 0).sum())
            cost = self._augmented_cost(dense, assignment)
            key = (-placed, cost)
            if best_key is None or key < best_key:
                best, best_key = assignment, key
        if best is None:
            return None
        solution = solution_from_assignment(request, best)
        solution.solver_gap = float("nan")  # rounded, bound unknown
        return solution

    @staticmethod
    def _one_trial(dense: DenseCosts, fractions: np.ndarray, rng: np.random.Generator,
                   sample: bool) -> np.ndarray:
        """One rounding pass: pick a server per application, repair capacity."""
        n_apps = len(dense.row_class)
        assignment = np.full(n_apps, -1, dtype=int)
        capacity_left = dense.capacity.copy()
        # Most fractional mass concentrated first: applications whose LP row is
        # nearly integral are committed before genuinely contested ones.
        order = sorted(range(n_apps), key=lambda i: -float(fractions[i].max(initial=0.0)))
        for i in order:
            c = dense.row_class[i]
            demand = dense.demand[dense.class_block[c]]
            weights = np.where(dense.mask[c], fractions[i], 0.0)
            total = float(weights.sum())
            if total <= 0.0:
                continue
            fits = dense.mask[c] & capacity_fits(demand, capacity_left)
            if not fits.any():
                continue
            j = -1
            if sample:
                pick = int(rng.choice(len(weights), p=weights / total))
                if fits[pick]:
                    j = pick
            if j < 0:
                # Deterministic repair: largest fraction among fitting servers,
                # cost as tie-break.
                ranked = np.where(fits, weights, -1.0)
                j = int(np.lexsort((dense.cost[c], -ranked))[0])
                if ranked[j] < 0.0:
                    continue
            assignment[i] = j
            capacity_left[j] -= demand[j]
        return assignment

    @staticmethod
    def _augmented_cost(dense: DenseCosts, assignment: np.ndarray) -> float:
        """Augmented objective of a trial (assignment cost + activations)."""
        total = 0.0
        served = np.zeros(dense.capacity.shape[0], dtype=int)
        for i, j in enumerate(assignment):
            if j >= 0:
                total += float(dense.cost[dense.row_class[i], int(j)])
                served[int(j)] += 1
        newly_on = (served > 0) & ~dense.initially_on
        return total + float(dense.activation[newly_on].sum())
