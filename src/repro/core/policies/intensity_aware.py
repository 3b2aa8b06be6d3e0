"""Intensity-aware baseline: greedily chase the greenest zone.

Section 6.1.3, baseline 3: "greedily assigns workloads to the greenest edge
data centers with the lowest carbon intensity values while respecting the
latency and resource constraints". Unlike CarbonEdge it ignores how much energy
the application actually consumes on each server — which is exactly the
behaviour the heterogeneity experiment (Figure 15) punishes.

Routed through the shared dense greedy kernel with the intensity objective;
equal-intensity choices tie-break by one-way latency (the kernel default).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.objective import ObjectiveKind
from repro.core.policies.base import PlacementPolicy
from repro.core.problem import PlacementProblem
from repro.core.solution import PlacementSolution
from repro.solver import registry


@dataclass
class IntensityAwarePolicy(PlacementPolicy):
    """Assign each application to the feasible server with the lowest carbon intensity."""

    name: str = "Intensity-aware"

    def place(self, problem: PlacementProblem,
              warm_start: dict[str, int] | None = None) -> PlacementSolution:
        return registry.solve(problem, backend="greedy",
                              objective=ObjectiveKind.INTENSITY, warm_start=warm_start)
