"""Solver layer: the MILP substrate and the pluggable backend registry.

The paper solves its placement optimisation (Equation 7) with Google OR-Tools.
OR-Tools is not available offline, so this package provides an in-house solver
layer in two tiers:

**The MILP substrate** (generic — knows nothing about carbon or placement):

* :mod:`repro.solver.milp` — a small MILP model builder (variables, linear
  constraints, linear objective) with validation helpers.
* :mod:`repro.solver.lp_relaxation` — LP relaxation solving via
  ``scipy.optimize.linprog`` (HiGHS backend).
* :mod:`repro.solver.branch_and_bound` — best-first branch & bound over the
  binary variables, warm-started by rounding.
* :mod:`repro.solver.rounding` — LP-rounding and repair heuristics.
* :mod:`repro.solver.result` — solution/status containers.

**The placement-backend layer** (the production front door):

* :mod:`repro.solver.compile` — the two-tier scenario compilation layer:
  :class:`ScenarioCompilation` hoists everything epoch-invariant (latency
  geometry, device-class blocks, feasibility rows, capacity tensors) to
  scenario scope, and :class:`EpochCompilation` precomputes the feasibility
  report, per-objective coefficient matrices, dense cost/demand tensors, and
  nearest-feasible latencies once per problem, shared by every policy and
  backend; it also hosts the single dense greedy kernel.
* :mod:`repro.solver.backend` — the :class:`PlacementSolver` protocol and
  :class:`SolveRequest` (a thin view over the compilation).
* :mod:`repro.solver.registry` — backend registration and
  :func:`solve(problem, backend="auto", time_budget_s=...) <repro.solver.registry.solve>`.
* :mod:`repro.solver.backends` — the built-in backends: ``bnb`` (exact branch
  and bound), ``heuristic`` (vectorised greedy + local search), and
  ``lp-round`` (LP relaxation + randomized rounding).

The registry symbols are exported lazily so that importing
``repro.solver.milp`` from :mod:`repro.core` never triggers the backends'
(circular) import of the placement problem types.
"""

from repro.solver.config import SolverConfig
from repro.solver.milp import MILPModel, Variable, LinearConstraint, VariableKind
from repro.solver.result import SolveResult, SolveStatus
from repro.solver.lp_relaxation import solve_lp_relaxation
from repro.solver.branch_and_bound import BranchAndBoundSolver
from repro.solver.rounding import round_and_repair

__all__ = [
    "MILPModel",
    "Variable",
    "LinearConstraint",
    "VariableKind",
    "SolveResult",
    "SolveStatus",
    "SolverConfig",
    "solve_lp_relaxation",
    "BranchAndBoundSolver",
    "round_and_repair",
    # lazily exported backend-registry API
    "solve",
    "get_backend",
    "register_backend",
    "available_backends",
    "backend_names",
    "PlacementSolver",
    "SolveRequest",
    "EpochCompilation",
    "DenseCosts",
    "compile_placement",
    "clear_compilation",
    "ScenarioCompilation",
    "EpochDelta",
    "compile_scenario",
    "clear_scenario_compilations",
    "scenario_tier_enabled",
]

_LAZY_REGISTRY_EXPORTS = {
    "solve", "get_backend", "register_backend", "available_backends", "backend_names",
}
_LAZY_BACKEND_EXPORTS = {"PlacementSolver", "SolveRequest"}
_LAZY_COMPILE_EXPORTS = {
    "EpochCompilation", "DenseCosts", "compile_placement", "clear_compilation",
    "ScenarioCompilation", "EpochDelta", "compile_scenario",
    "clear_scenario_compilations", "scenario_tier_enabled",
}


def __getattr__(name: str):
    if name in _LAZY_REGISTRY_EXPORTS:
        from repro.solver import registry
        return getattr(registry, name)
    if name in _LAZY_BACKEND_EXPORTS:
        from repro.solver import backend
        return getattr(backend, name)
    if name in _LAZY_COMPILE_EXPORTS:
        from repro.solver import compile as compile_module
        return getattr(compile_module, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
