"""The solver-backend abstraction for the placement problem.

A *backend* solves one :class:`~repro.core.problem.PlacementProblem` under a
:class:`SolveRequest` (objective, time budget, warm start) and returns a
:class:`~repro.core.solution.PlacementSolution` — or ``None`` when it cannot
produce one, in which case the registry falls back to the heuristic backend.
Backends implement the :class:`PlacementSolver` protocol and register
themselves with :func:`repro.solver.registry.register_backend`; callers go
through :func:`repro.solver.registry.solve` and never instantiate backends
directly.

The shared numeric substrate (dense cost/demand tensors, the feasibility
report, per-objective coefficients) lives in the scenario compilation layer
(:mod:`repro.solver.compile`): a :class:`SolveRequest` is a thin view over
the problem's memoised :class:`~repro.solver.compile.EpochCompilation`, so
every backend — and every *policy* solving the same problem in the same
epoch — reads one set of precomputed tensors instead of rebuilding its own.
:class:`DenseCosts` and the assignment decoding helpers are re-exported here
for backward compatibility.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Protocol, runtime_checkable

import numpy as np

from repro.core.filters import FeasibilityReport
from repro.core.objective import ObjectiveKind
from repro.core.problem import PlacementProblem
from repro.core.solution import PlacementSolution
from repro.solver.compile import (  # noqa: F401  (re-exported for compatibility)
    DenseCosts,
    EpochCompilation,
    assignment_to_solution,
    bool_all,
    compile_placement,
)
from repro.solver.config import DEFAULT_SOLVER_CONFIG, SolverConfig


@dataclass
class SolveRequest:
    """Everything a backend needs to solve one placement instance.

    Parameters
    ----------
    problem:
        The placement problem instance.
    objective:
        Which objective to minimise (carbon by default).
    alpha:
        Energy weight of the multi-objective variant (Equation 8).
    manage_power:
        Include the server-activation term and power decisions; when False
        every server is treated as already on (the power ablation).
    time_budget_s:
        Wall-clock budget. Backends must return their best answer so far when
        it expires; ``None`` means each backend's own default limit applies.
    warm_start:
        Optional previous placement (app id -> server index) used to seed the
        backends for incremental epoch re-solves. Malformed entries — ids of
        departed applications, server indices outside the fleet, values that
        are not integers — are dropped up front (serving-mode re-solves can
        produce them) and counted in :attr:`warm_hints_dropped`, so no
        backend ever sees a hint it could KeyError on. Entries that are
        well-formed but infeasible under the current epoch (mask/capacity)
        are left in: backends skip those individually.
    max_nodes:
        Node budget for the branch-and-bound backend (ignored by the others).
    seed:
        Seed for the randomised backends (randomized rounding).
    config:
        Solver configuration (:class:`~repro.solver.config.SolverConfig`).
        Backends read only ``num_search_workers``, the anytime exact
        backends' search width; the hierarchy knobs are consumed above the
        backend layer.
    """

    problem: PlacementProblem
    objective: ObjectiveKind = ObjectiveKind.CARBON
    alpha: float = 0.0
    manage_power: bool = True
    time_budget_s: float | None = None
    warm_start: dict[str, int] | None = None
    max_nodes: int | None = None
    seed: int = 0
    config: SolverConfig = DEFAULT_SOLVER_CONFIG
    started_at: float = field(default_factory=time.monotonic)
    #: Malformed warm-start entries dropped by the sanitization pass.
    warm_hints_dropped: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.time_budget_s is not None and self.time_budget_s < 0:
            raise ValueError(f"time_budget_s must be non-negative, got {self.time_budget_s}")
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError(f"max_nodes must be positive, got {self.max_nodes}")
        self._sanitize_warm_start()

    def _sanitize_warm_start(self) -> None:
        """Drop warm-start hints no backend could honour, counting them.

        Epoch re-solves in serving mode can race departures and fleet edits:
        a hint may name an application no longer in the batch or a server
        index outside the rebuilt fleet. Filtering here (with a counter that
        the registry surfaces as ``PlacementSolution.warm_hints_dropped``)
        means every backend can index ``problem.app_index(app_id)`` on the
        remaining hints without defensive try/except of its own.
        """
        if not self.warm_start:
            return
        problem = self.problem
        clean: dict[str, int] = {}
        for app_id, j in self.warm_start.items():
            try:
                problem.app_index(app_id)
                j = int(j)
            except (KeyError, TypeError, ValueError):
                self.warm_hints_dropped += 1
                continue
            if not 0 <= j < problem.n_servers:
                self.warm_hints_dropped += 1
                continue
            clean[app_id] = j
        self.warm_start = clean

    @property
    def compilation(self) -> EpochCompilation:
        """The problem's memoised epoch compilation (shared by every backend)."""
        return compile_placement(self.problem)

    @property
    def report(self) -> FeasibilityReport:
        """Feasible-server report (computed once per problem, shared by all)."""
        return self.compilation.report

    def coefficients(self) -> tuple[np.ndarray, np.ndarray]:
        """Raw (assignment, activation) objective coefficients for this request.

        With ``manage_power=False`` the activation coefficients are zero — the
        objective ignores power state, matching the MILP builder's behaviour.
        """
        assign, activation = self.compilation.coefficients(self.objective, self.alpha)
        if not self.manage_power:
            activation = np.zeros_like(activation)
        return assign, activation

    def dense(self) -> DenseCosts:
        """Dense cost/demand tensors (built once per problem, shared by every
        backend and policy through the epoch compilation)."""
        return self.compilation.dense(self.objective, self.alpha, self.manage_power)

    def remaining_s(self, default: float | None = None) -> float | None:
        """Seconds left in the budget (``default`` when no budget was set)."""
        if self.time_budget_s is None:
            return default
        return max(0.0, self.time_budget_s - (time.monotonic() - self.started_at))

    def deadline(self, default_budget_s: float) -> float:
        """Absolute monotonic deadline, using ``default_budget_s`` when unbudgeted."""
        budget = self.time_budget_s if self.time_budget_s is not None else default_budget_s
        return self.started_at + budget

    def expired(self) -> bool:
        """Whether the explicit time budget (if any) has run out."""
        remaining = self.remaining_s()
        return remaining is not None and remaining <= 0.0


@runtime_checkable
class PlacementSolver(Protocol):
    """Protocol every solver backend implements."""

    #: Canonical backend name (the registry key).
    name: str

    def solve(self, request: SolveRequest) -> PlacementSolution | None:
        """Solve the request, or return ``None`` when no solution was found."""
        ...


def solution_from_assignment(request: SolveRequest,
                             assignment: np.ndarray) -> PlacementSolution:
    """Decode an (A,) assignment vector (server index or -1) into a solution."""
    return assignment_to_solution(request.problem, assignment, request.manage_power)


def raw_objective_value(request: SolveRequest, solution: PlacementSolution) -> float:
    """Objective value of a solution under the request's un-augmented coefficients.

    Used by the registry to compare candidate solutions from different
    backends on equal footing (total carbon for the carbon objective, joules
    for energy, the normalised blend for multi-objective).
    """
    assign, activation = request.coefficients()
    problem = request.problem
    total = 0.0
    for app_id, j in solution.placements.items():
        total += float(assign[problem.app_index(app_id), j])
    if request.manage_power:
        total += float(np.dot(solution.newly_activated(), activation))
    return total
