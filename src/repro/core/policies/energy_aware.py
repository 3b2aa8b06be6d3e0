"""Energy-aware baseline: minimise energy usage under latency/resource constraints.

Section 6.1.3, baseline 2: "distributes workloads to energy-efficient edge data
centers to decrease energy consumption". Implemented as the same optimisation
as CarbonEdge but with the energy objective (dynamic energy of every assignment
plus the base-power energy of newly activated servers), solved through the same
pluggable backend registry.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.objective import ObjectiveKind
from repro.core.policies.base import PlacementPolicy
from repro.core.policies.carbon_edge import validate_solver_name
from repro.core.problem import PlacementProblem
from repro.core.solution import PlacementSolution
from repro.solver import registry


@dataclass
class EnergyAwarePolicy(PlacementPolicy):
    """Minimise total energy consumption subject to the placement constraints."""

    solver: str = "auto"
    max_nodes: int = 100
    time_limit_s: float = 15.0
    name: str = "Energy-aware"

    def __post_init__(self) -> None:
        validate_solver_name(self.solver)

    def place(self, problem: PlacementProblem,
              warm_start: dict[str, int] | None = None) -> PlacementSolution:
        return registry.solve(
            problem,
            backend=self.solver,
            objective=ObjectiveKind.ENERGY,
            time_budget_s=self.time_limit_s,
            warm_start=warm_start,
            max_nodes=self.max_nodes,
        )
