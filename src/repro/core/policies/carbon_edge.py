"""The CarbonEdge placement policy (the paper's contribution).

CarbonEdge minimises the Equation-6 carbon footprint of the batch — operational
emissions of every assignment plus activation emissions of newly powered-on
servers — subject to the capacity, latency, assignment, and power-state
constraints (Equations 1–5). The actual optimisation is delegated to the
pluggable solver-backend registry (:mod:`repro.solver.registry`):

* ``"exact"`` / ``"bnb"`` — branch & bound over the MILP (HiGHS LP
  relaxations), the OR-Tools analogue used for the testbed-scale experiments;
* ``"lp-round"`` — one LP relaxation followed by randomized rounding;
* ``"greedy"`` / ``"heuristic"`` — the vectorised greedy + local-search
  backend, used at CDN scale and under tight time budgets;
* ``"auto"`` (default) — exact for small models with enough budget, the
  heuristic beyond the size cutoff.

Any other backend registered with the registry is accepted by name, so new
backends (e.g. a real OR-Tools binding) plug in without touching this policy.

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
from repro.solver.config import AUTO_EXACT_PAIR_LIMIT

#: Historical solver strategy names (all remain valid; the registry accepts
#: any registered backend name or alias on top of these).
SOLVER_STRATEGIES: tuple[str, ...] = ("auto", "exact", "lp-round", "greedy")

#: Back-compat re-export: "auto" switches from exact to the heuristic backend
#: above this number of candidate (application, server) pairs.
AUTO_EXACT_VARIABLE_LIMIT: int = AUTO_EXACT_PAIR_LIMIT


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
        budget only applies to branch and bound).
    hierarchy_regions / refine_backend:
        Cluster-then-refine hierarchy knobs (:mod:`repro.solver.hierarchy`);
        ``hierarchy_regions=1`` keeps the flat solve. These change which
        answer comes back (see :class:`~repro.solver.config.SolverConfig`).
    num_search_workers:
        Parallel search workers for the anytime exact backends
        (``cpsat``/``milp``); ignored by the heuristic family. Under a finite
        time budget this can change which incumbent is returned (see the
        :class:`~repro.solver.config.SolverConfig` carve-out).
    """

    alpha: float = 0.0
    solver: str = "auto"
    manage_power: bool = True
    max_nodes: int = 200
    time_limit_s: float = 30.0
    hierarchy_regions: int = 1
    refine_backend: str = "greedy"
    num_search_workers: int = 1
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
            config=self.solver_config(),
        )
