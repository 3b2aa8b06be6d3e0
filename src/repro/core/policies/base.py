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

import time
from abc import ABC, abstractmethod

from repro.core.problem import PlacementProblem
from repro.core.solution import PlacementSolution


class PlacementPolicy(ABC):
    """Abstract base class for placement policies."""

    #: Human-readable policy name (used in experiment tables).
    name: str = "policy"

    @abstractmethod
    def place(self, problem: PlacementProblem,
              warm_start: dict[str, int] | None = None) -> PlacementSolution:
        """Place the problem's applications and return the resulting solution."""

    def timed_place(self, problem: PlacementProblem,
                    warm_start: dict[str, int] | None = None) -> PlacementSolution:
        """Run :meth:`place` and record its wall-clock time on the solution."""
        start = time.monotonic()
        solution = self.place(problem, warm_start=warm_start)
        solution.solve_time_s = time.monotonic() - start
        solution.policy_name = self.name
        return solution

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"
