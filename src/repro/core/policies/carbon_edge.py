"""The CarbonEdge placement policy (the paper's contribution).

CarbonEdge minimises the Equation-6 carbon footprint of the batch — operational
emissions of every assignment plus activation emissions of newly powered-on
servers — subject to the capacity, latency, assignment, and power-state
constraints (Equations 1–5). The actual optimisation is delegated to the
pluggable solver-backend registry (:mod:`repro.solver.registry`):

* ``"exact"`` / ``"highs"`` — the MILP solved by scipy's HiGHS, standing in
  for the paper's OR-Tools solve in the testbed-scale experiments;
* ``"lp-round"`` — the same MILP's LP relaxation followed by randomized
  rounding;
* ``"greedy"`` / ``"heuristic"`` — the vectorised greedy + local-search
  backend, used at CDN scale and under tight time budgets;
* ``"auto"`` (default) — exact for small models with enough budget, the
  heuristic beyond the size cutoff.

Any other backend registered with the registry is accepted by name, so new
backends plug in without touching this policy.

The multi-objective extension (Equation 8) is exposed through ``alpha``:
``alpha = 0`` is vanilla CarbonEdge, ``alpha = 1`` reduces to the Energy-aware
objective, intermediate values trade carbon for energy (Section 6.4).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.objective import ObjectiveKind
from repro.core.policies.base import PlacementPolicy
from repro.core.problem import PlacementProblem
from repro.core.solution import PlacementSolution
from repro.solver import registry


def validate_solver_name(solver: str) -> None:
    """Raise ``ValueError`` unless ``solver`` names a registered backend or auto."""
    if solver not in registry.backend_names(include_auto=True):
        raise ValueError(
            f"unknown solver {solver!r}; expected one of {registry.backend_names()}")


@dataclass
class CarbonEdgePolicy(PlacementPolicy):
    """Carbon-aware placement with latency constraints (Equation 7 / 8).

    Parameters
    ----------
    alpha:
        Energy weight of the multi-objective extension (Equation 8); 0 keeps
        the pure carbon objective.
    solver:
        Backend name, alias, or ``"auto"`` (see :func:`repro.solver.registry.solve`).
    manage_power:
        Include the server-activation term and power decisions; disabling it
        reproduces the "no power management" ablation.
    max_nodes / time_limit_s:
        Node and wall-clock budget forwarded to the solver backends (the node
        limit only applies to the ``highs`` backend's branch and bound).

    The policy always solves the flat epoch problem it is handed. The
    cluster-then-refine tier is not a policy setting: callers enter it through
    :func:`repro.solver.hierarchy.solve_hierarchical`, as ``planetary_sweep``
    does.
    """

    alpha: float = 0.0
    solver: str = "auto"
    manage_power: bool = True
    max_nodes: int = 200
    time_limit_s: float = 30.0
    name: str = "CarbonEdge"

    def __post_init__(self) -> None:
        validate_solver_name(self.solver)
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.alpha > 0:
            self.name = f"CarbonEdge(alpha={self.alpha:g})"

    @property
    def objective_kind(self) -> ObjectiveKind:
        """Objective minimised by this policy instance."""
        return ObjectiveKind.MULTI if self.alpha > 0 else ObjectiveKind.CARBON

    def place(self, problem: PlacementProblem,
              warm_start: dict[str, int] | None = None) -> PlacementSolution:
        return registry.solve(
            problem,
            backend=self.solver,
            objective=self.objective_kind,
            alpha=self.alpha,
            manage_power=self.manage_power,
            time_budget_s=self.time_limit_s,
            warm_start=warm_start,
            max_nodes=self.max_nodes,
        )
