"""Greedy construction + local-search heuristic backend.

The workhorse for large instances and tight time budgets: the shared dense
greedy kernel (:func:`repro.solver.compile.greedy_fill` — the one greedy
engine in the tree, also backing the baseline policies) followed by
best-improvement relocation local search. The construction alone is the
``greedy`` backend; the local-search phase closes most of the remaining gap
to the exact solve by relocating applications whenever the move lowers the
augmented objective — including the activation saving of emptying a server
that the placement itself switched on.

The backend is deterministic (fixed iteration order, first-index argmin), so
the registry can rely on it both as the fast path and as the fallback
baseline for the other backends. Warm starts (previous epoch's placement) are
applied before the greedy fill, which makes incremental epoch re-solves cheap:
only applications whose previous server became infeasible are re-placed from
scratch, and local search then re-optimises around the seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.solution import PlacementSolution
from repro.solver.backend import SolveRequest, solution_from_assignment
from repro.solver.compile import DenseCosts, GreedyState, bool_all, greedy_fill
from repro.solver.registry import register_backend

#: Local-search wall-clock budget when the request carries none.
DEFAULT_LOCAL_SEARCH_BUDGET_S: float = 5.0

#: Deadline is polled every this many applications inside a pass.
_DEADLINE_STRIDE: int = 64


@register_backend("heuristic", aliases=("local-search",))
@dataclass
class GreedyLocalSearchBackend:
    """Vectorised greedy + relocation local search.

    Parameters
    ----------
    max_passes:
        Maximum number of full local-search sweeps over the applications.
    local_search:
        Disable to get the pure greedy construction (the ``greedy`` backend).
    """

    max_passes: int = 8
    local_search: bool = True
    name: str = "heuristic"
    #: These backends always return a feasible solution on their own; the
    #: registry skips the redundant heuristic-baseline run for them.
    needs_fallback: bool = False

    def solve(self, request: SolveRequest) -> PlacementSolution | None:
        state = GreedyState(request.dense())
        self._apply_warm_start(request, state)
        # The construction respects an explicit time budget (requests without
        # one keep the unbounded construction — bit-identity consumers never
        # pass a budget, so their schedule is untouched). An expired budget
        # returns the valid partial fill, flagged construction_truncated.
        construction_deadline = None if request.time_budget_s is None \
            else request.started_at + request.time_budget_s
        greedy_fill(state, request.problem.energy_j,
                    deadline=construction_deadline)
        if self.local_search and not state.stats.truncated:
            self._improve(request, state)
        solution = solution_from_assignment(request, state.assignment)
        # Replay-execution telemetry (diagnostics only — see FillStats).
        solution.wave_count = state.stats.waves
        solution.revalidation_rate = state.stats.revalidation_rate
        solution.construction_truncated = state.stats.truncated
        return solution

    # -- construction ---------------------------------------------------------

    def _apply_warm_start(self, request: SolveRequest, state: GreedyState) -> None:
        """Seed the assignment from a previous placement, skipping stale entries.

        Malformed hints (departed apps, out-of-range servers) were already
        dropped — and counted — by the request's sanitization pass; what
        remains is well-formed, so only the epoch-specific feasibility checks
        (mask, remaining capacity) are applied here.
        """
        if not request.warm_start:
            return
        problem = request.problem
        for app_id, j in request.warm_start.items():
            i = problem.app_index(app_id)  # O(1), cached on the problem
            j = int(j)
            if not state.dense.mask[i, j] or state.assignment[i] >= 0:
                continue
            if not bool_all(state.dense.demand[i, j] <= state.capacity_left[j] + 1e-9):
                continue
            state.place(i, j)

    # -- local search ----------------------------------------------------------

    def _improve(self, request: SolveRequest, state: GreedyState) -> None:
        """Best-improvement relocation sweeps until convergence or deadline."""
        deadline = request.deadline(DEFAULT_LOCAL_SEARCH_BUDGET_S)
        if time.monotonic() >= deadline:
            return
        dense = state.dense
        n_apps = len(state.assignment)
        for _ in range(self.max_passes):
            improved = False
            for i in range(n_apps):
                if i % _DEADLINE_STRIDE == 0 and time.monotonic() >= deadline:
                    return
                if self._relocate(i, state, dense):
                    improved = True
            if not improved:
                return

    def _relocate(self, i: int, state: GreedyState, dense: DenseCosts) -> bool:
        """Move application ``i`` to the server with the best cost delta, if any."""
        j0 = int(state.assignment[i])
        feasible = dense.mask[i] & dense.fits(i, state.capacity_left)
        if j0 >= 0:
            feasible[j0] = True  # staying put is always allowed
        if not feasible.any():
            return False
        served_without = state.served.copy()
        if j0 >= 0:
            served_without[j0] -= 1
        # Cost of hosting i on each server, counting servers this move would
        # newly switch on (a server only i occupies stops counting).
        activation_pay = dense.activation * ((served_without == 0) & ~dense.initially_on)
        candidate = np.where(feasible, dense.cost[i] + activation_pay, np.inf)
        j1 = int(np.argmin(candidate))
        if not np.isfinite(candidate[j1]):
            return False
        if j0 < 0:
            # Placing a previously unplaced application always wins.
            state.place(i, j1)
            return True
        current = dense.cost[i, j0] + activation_pay[j0]
        if candidate[j1] >= current - 1e-9 or j1 == j0:
            return False
        state.move(i, j0, j1)
        return True


@register_backend("greedy")
@dataclass
class PureGreedyBackend(GreedyLocalSearchBackend):
    """Construction-only variant: the dense greedy kernel's registry face.

    Same ordering and marginal-cost rule as the full heuristic, without the
    local-search pass — so ``solver="greedy"`` keeps the one-shot greedy cost
    profile at CDN scale. This is also the engine behind the Latency-,
    Intensity-, and Energy-aware baseline policies.
    """

    local_search: bool = False
    name: str = "greedy"
