"""Latency-aware baseline: place every application at its nearest feasible server.

This is the strategy "commonly employed in edge computing" that the paper
compares against (Section 6.1.3, baseline 1): it minimises network latency with
no regard for carbon or energy. It is also the reference against which carbon
savings and latency increases are reported.

Routed through the shared dense greedy kernel with the latency objective;
equal-latency choices tie-break by operational carbon (see
:meth:`repro.solver.compile.EpochCompilation.tie_break_for`) so comparisons
stay stable across runs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.objective import ObjectiveKind
from repro.core.policies.base import PlacementPolicy
from repro.core.problem import PlacementProblem
from repro.core.solution import PlacementSolution
from repro.solver import registry


@dataclass
class LatencyAwarePolicy(PlacementPolicy):
    """Assign each application to the lowest-latency server with capacity."""

    hierarchy_regions: int = 1
    refine_backend: str = "greedy"
    num_search_workers: int = 1
    name: str = "Latency-aware"

    @property
    def objective_kind(self) -> ObjectiveKind:
        return ObjectiveKind.LATENCY

    def place(self, problem: PlacementProblem,
              warm_start: dict[str, int] | None = None) -> PlacementSolution:
        return registry.solve(problem, backend="greedy",
                              objective=ObjectiveKind.LATENCY, warm_start=warm_start,
                              config=self.solver_config())
