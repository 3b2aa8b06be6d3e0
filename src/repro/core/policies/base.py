"""Placement-policy interface.

Every policy maps a :class:`~repro.core.problem.PlacementProblem` to a
:class:`~repro.core.solution.PlacementSolution`. Policies are stateless across
calls — all state (server capacities, power) lives in the problem instance,
which the incremental placer rebuilds from the fleet before every batch.

Policies optionally accept a *warm start* (a previous placement of the same
applications), which the optimisation-based policies forward to the solver
backends for incremental epoch re-solves; policies that cannot use it simply
ignore the argument.
"""

from __future__ import annotations

import inspect
import time
from abc import ABC, abstractmethod

from repro.core.objective import ObjectiveKind
from repro.core.problem import PlacementProblem
from repro.core.solution import PlacementSolution
from repro.solver.config import SolverConfig


class PlacementPolicy(ABC):
    """Abstract base class for placement policies."""

    #: Human-readable policy name (used in experiment tables).
    name: str = "policy"

    def solver_config(self) -> SolverConfig:
        """Solver configuration forwarded to the solver registry.

        Reads the policy's ``hierarchy_regions`` / ``refine_backend`` /
        ``num_search_workers`` fields when it declares them
        (:class:`SolverConfig` validates them), so every solver-backed policy
        shares one plumbing path for solver knobs. The hierarchy knobs select
        the cluster-then-refine tier (:mod:`repro.solver.hierarchy`) and
        ``num_search_workers`` widens the anytime exact backends' parallel
        search — see :class:`SolverConfig` for how each can change which
        answer comes back.
        """
        return SolverConfig(
            hierarchy_regions=getattr(self, "hierarchy_regions", 1),
            refine_backend=getattr(self, "refine_backend", "greedy"),
            num_search_workers=getattr(self, "num_search_workers", 1),
        )

    @property
    def objective_kind(self) -> ObjectiveKind:
        """Objective this policy minimises (drives the hierarchical tier)."""
        return ObjectiveKind.CARBON

    @abstractmethod
    def place(self, problem: PlacementProblem,
              warm_start: dict[str, int] | None = None) -> PlacementSolution:
        """Place the problem's applications and return the resulting solution."""

    def timed_place(self, problem: PlacementProblem,
                    warm_start: dict[str, int] | None = None) -> PlacementSolution:
        """Run :meth:`place` and record its wall-clock time on the solution."""
        start = time.monotonic()
        # Only forward the warm start to policies whose place() accepts it, so
        # subclasses written against the original single-argument signature
        # keep working everywhere — including the epoch re-solve path, which
        # always supplies one.
        if warm_start is None or not self._accepts_warm_start():
            solution = self.place(problem)
        else:
            solution = self.place(problem, warm_start=warm_start)
        solution.solve_time_s = time.monotonic() - start
        solution.policy_name = self.name
        return solution

    def _accepts_warm_start(self) -> bool:
        """Whether this policy's ``place`` accepts the ``warm_start`` keyword."""
        parameters = inspect.signature(self.place).parameters
        return "warm_start" in parameters or any(
            p.kind is inspect.Parameter.VAR_KEYWORD for p in parameters.values())

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
