"""Solver layer: the placement-backend registry and its compiled substrate.

The paper solves its placement optimisation (Equation 7) with Google OR-Tools.
This package solves the same Equations 1–7 model with scipy's HiGHS
(:func:`scipy.optimize.milp`), behind a pluggable backend registry:

* :mod:`repro.solver.compile` — the two-tier scenario compilation layer:
  :class:`ScenarioCompilation` hoists everything epoch-invariant (latency
  geometry, device-class blocks, feasibility rows, capacity tensors) to
  scenario scope, and :class:`EpochCompilation` precomputes the class
  tables (candidate mask, energy and demand rows) and the per-objective
  dense cost tensors once per problem, shared by every policy and backend;
  it also hosts the single dense greedy kernel.
* :mod:`repro.solver.backend` — the :class:`PlacementSolver` protocol and
  :class:`SolveRequest` (a thin view over the compilation).
* :mod:`repro.solver.registry` — backend registration and
  :func:`solve(problem, backend="auto", time_budget_s=...) <repro.solver.registry.solve>`.
* :mod:`repro.solver.backends` — the built-in backends: ``highs`` (the exact
  MILP solved by HiGHS), ``heuristic`` (vectorised greedy + local search),
  ``greedy`` (the construction alone), and ``lp-round`` (the same MILP's LP
  relaxation + randomized rounding).

The registry, backend and compilation symbols are exported lazily so that
importing the package from :mod:`repro.core` (the policies import the
registry) never triggers the backends' (circular) import of the placement
problem types.
"""

from repro.solver.config import SolverConfig

__all__ = [
    "SolverConfig",
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
]

_LAZY_REGISTRY_EXPORTS = {
    "solve", "get_backend", "register_backend", "available_backends", "backend_names",
}
_LAZY_BACKEND_EXPORTS = {"PlacementSolver", "SolveRequest"}
_LAZY_COMPILE_EXPORTS = {
    "EpochCompilation", "DenseCosts", "compile_placement", "clear_compilation",
    "ScenarioCompilation", "EpochDelta", "compile_scenario",
    "clear_scenario_compilations",
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
